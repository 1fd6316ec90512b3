"""Protocol algorithm and state-machine contracts."""

import copy
import dataclasses

import pytest

from kimap.bits import (BitString, HashSpec, OpMeter, Prng, hash2_layout, metered, prng_next,
                        split, xor)
from kimap.channel import run_session
from kimap.protocol import (
    BroadcastAuth,
    LengthError,
    ParameterError,
    SessionOrderError,
    TagAuth,
    auth_server_tag,
    auth_tag_msg,
    key_update,
    keygen,
    make_candidate,
    offered_slots,
    partial_key,
    server_begin,
    server_finalize,
    server_prepare,
    server_timeout,
    session_key,
    session_operands,
    slot_keys,
    tag_respond_nonce,
    tag_verify_and_respond,
)

TOY8 = HashSpec.toy(8)
TOY16 = HashSpec.toy(16)
PROD64 = HashSpec.production(64)


def honest_session(server, tag, spec):
    return run_session(server, tag, [], spec).outcome_server


def offered_keys(server, spec):
    """The keys the next broadcast under ``spec`` offers each record, by
    label, in slot order."""
    keys = {label: [] for label in server.records}
    for slot in offered_slots(server, spec):
        keys[slot.label].append(slot.key)
    return keys


class TestKeygen:
    def test_registry_mirrors_tags(self):
        server, tags = keygen(64, 3, Prng(1, 0))
        assert len(server.records) == 3
        assert offered_keys(server, PROD64) == {label: [tag.key]
                                                for label, tag in zip(server.records, tags)}
        assert [(rec.counter, tag.counter)
                for rec, tag in zip(server.records.values(), tags)] == [(1, 1)] * 3

    def test_deterministic_under_seed(self):
        s1, t1 = keygen(64, 1, Prng(77, 0))
        s2, t2 = keygen(64, 1, Prng(77, 0))
        assert s1.master == s2.master
        assert t1[0].key == t2[0].key

    def test_odd_width_rejected(self):
        refused("keygen-63-bits")

    def test_tiny_width_rejected(self):
        refused("keygen-6-bits")

    def test_no_tags_rejected(self):
        refused("keygen-no-tags")

    def test_tag_keys_independent(self):
        _, tags = keygen(64, 4, Prng(5, 0))
        assert len({t.key for t in tags}) == 4


class TestAlgorithms:
    def test_partial_key_deterministic(self):
        master = BitString(0xAB, 8)
        k = BitString(0x12, 8)
        assert partial_key(TOY8, 3, master, k) == partial_key(TOY8, 3, master, k)

    def test_partial_key_counter_sensitivity(self):
        prng = Prng(2, 0)
        master = prng_next(prng, 16)
        for i in range(1, 101):
            k = prng_next(prng, 16)
            assert partial_key(TOY16, i, master, k) != partial_key(TOY16, i + 1, master, k)

    def test_session_key_is_concatenation(self):
        assert session_key(BitString(0b10, 2), BitString(0b01, 2)) == BitString(0b1001, 4)

    def test_session_key_splits_back(self):
        a, b = BitString(0x3, 4), BitString(0xC, 4)
        assert split(session_key(a, b)) == (a, b)

    def test_key_update_avalanche_on_challenge(self):
        prng = Prng(3, 0)
        for _ in range(100):
            kd = prng_next(prng, 8)
            xd = prng_next(prng, 8)
            x_s = prng_next(prng, 16)
            flipped = x_s.flip(prng.randbelow(16))
            assert key_update(TOY16, kd, xd, x_s) != key_update(TOY16, kd, xd, flipped)

    def test_auth_server_tag_binds_tag_nonce(self):
        prng = Prng(4, 0)
        for _ in range(100):
            kp = prng_next(prng, 8)
            x = prng_next(prng, 16)
            x_s = prng_next(prng, 16)
            x_t = prng_next(prng, 16)
            other = prng_next(prng, 16)
            if other == x_t:
                continue
            assert auth_server_tag(TOY16, kp, x, x_s, x_t) != auth_server_tag(TOY16, kp, x, x_s, other)

    def test_auth_tag_msg_binds_session_key(self):
        prng = Prng(5, 0)
        for _ in range(100):
            x_t = prng_next(prng, 16)
            x_s = prng_next(prng, 16)
            sk = prng_next(prng, 16)
            other = prng_next(prng, 16)
            if other == sk:
                continue
            assert auth_tag_msg(TOY16, x_t, x_s, sk) != auth_tag_msg(TOY16, x_t, x_s, other)


class TestFlights:
    def test_challenge_shape_and_freshness(self):
        server, _ = keygen(64, 1, Prng(6, 0))
        seen = {server_begin(server).x_s for _ in range(1000)}
        assert len(seen) == 1000
        assert all(len(x) == 64 for x in seen)

    def test_challenge_seeded_determinism(self):
        s1, _ = keygen(64, 1, Prng(8, 0))
        s2, _ = keygen(64, 1, Prng(8, 0))
        assert server_begin(s1).x_s == server_begin(s2).x_s

    def test_nonce_shape_and_freshness(self):
        _, tags = keygen(64, 1, Prng(9, 0))
        seen = {tag_respond_nonce(tags[0]).x_t for _ in range(1000)}
        assert len(seen) == 1000
        assert all(len(x) == 64 for x in seen)

    def test_candidate_count_without_previous(self):
        server, tags = keygen(16, 3, Prng(10, 0))
        bc, _ = server_prepare(server, BitString(1, 16), BitString(2, 16), TOY16)
        assert len(bc.sigmas) == 3

    def test_candidate_count_with_previous(self):
        server, tags = keygen(16, 3, Prng(10, 0))
        honest_session(server, tags[0], TOY16)  # first record gains a previous key
        bc, _ = server_prepare(server, BitString(1, 16), BitString(2, 16), TOY16)
        assert len(bc.sigmas) == 4

    def test_candidate_order_is_shuffled(self):
        # across sessions the same record should not sit at a fixed position
        server, tags = keygen(16, 6, Prng(11, 0))
        positions = set()
        for _ in range(20):
            ch = server_begin(server)
            nonce = tag_respond_nonce(tags[0])
            bc, pending = server_prepare(server, ch.x_s, nonce.x_t, TOY16)
            positions.add(next(i for i, c in enumerate(pending.candidates) if c.label == "t001"))
            ta = tag_verify_and_respond(tags[0], ch.x_s, bc, TOY16)
            server_finalize(server, pending, ta)
        assert len(positions) > 1


class TestTagVerify:
    def test_honest_accept_updates_key(self):
        server, tags = keygen(16, 1, Prng(12, 0))
        k_before = tags[0].key
        result = honest_session(server, tags[0], TOY16)
        assert result.accepted
        assert tags[0].key != k_before
        assert tags[0].key == server.records["t001"].key_current
        assert tags[0].counter == 2

    def test_all_candidates_corrupted(self):
        server, tags = keygen(16, 1, Prng(13, 0))
        ch = server_begin(server)
        nonce = tag_respond_nonce(tags[0])
        bc, _ = server_prepare(server, ch.x_s, nonce.x_t, TOY16)
        k_before = tags[0].key
        mangled = bc._replace(sigmas=tuple(sigma ^ 1 << 15 for sigma in bc.sigmas))
        ta = tag_verify_and_respond(tags[0], ch.x_s, mangled, TOY16)
        assert len(ta.sigma_prime) == 16
        assert tags[0].key == k_before
        assert tags[0].counter == 1

    def test_requires_session_in_flight(self):
        refused("tag_scan-without-session")

    def test_pending_erased_on_both_paths(self):
        server, tags = keygen(16, 1, Prng(15, 0))
        honest_session(server, tags[0], TOY16)
        assert tags[0].pending is None
        ch = server_begin(server)
        tag_respond_nonce(tags[0])
        tag_verify_and_respond(tags[0], ch.x_s, _broadcast(16, 16), TOY16)
        assert tags[0].pending is None


class TestWidthChecks:
    """Operands of the wrong width raise, whether they are checked once per
    session or once per candidate; a sigma or sigma' of the wrong width does
    not authenticate."""

    @pytest.mark.parametrize("case", [
        "session_key", "key_update", "auth_server_tag", "auth_tag_msg", "session_operands",
        "slot_keys-key-narrower-than-the-master", "make_candidate-of-another-width",
        "tag_scan-narrow-delta", "server_prepare-previous-key-narrower", "tag_scan-narrow-tag-key",
    ], ids=["session_key", "key_update", "auth_server_tag", "auth_tag_msg", "session_operands",
            "slot_keys_master", "make_candidate",
            "tag_scan_delta", "server_prepare_previous_key", "tag_scan_tag_key"])
    def test_every_width_check_raises_length_error(self, case):
        refused(case)

    @pytest.mark.parametrize("x_s_len,x_t_len", [(16, 15), (15, 16), (14, 14)])
    def test_server_prepare_rejects_wrong_width_operands(self, x_s_len, x_t_len):
        refused(f"server_prepare-{x_s_len}-{x_t_len}-bits")

    @pytest.mark.parametrize("case", ["server_prepare-wider-than-the-master",
                                      "server_prepare-key-narrower-than-the-master"],
                             ids=["session", "record"])
    def test_width_error_leaves_the_prng_unmoved(self, case):
        refused(case)

    def test_tag_scan_rejects_wrong_width_delta(self):
        """A broadcast states one width for all its deltas, and the tag's
        scan refuses a width other than its key's before it hashes any
        candidate."""
        refused("tag_scan-narrow-deltas")

    def test_tag_scan_rejects_wrong_width_challenge(self):
        refused("tag_scan-narrow-challenge")

    @pytest.mark.parametrize("spec", [TOY16, HashSpec.production(16)])
    @pytest.mark.parametrize("extra", [1, 8, 48])
    def test_tag_scan_holds_sigma_to_its_width(self, spec, extra):
        """A candidate whose sigma has the digest's value but another width
        does not authenticate the server."""
        server, tags = keygen(16, 1, Prng(23, 0))
        ch = server_begin(server)
        nonce = tag_respond_nonce(tags[0])
        bc, _ = server_prepare(server, ch.x_s, nonce.x_t, spec)
        sigma_bits, delta_bits, (sigma,), (delta,) = bc
        key, counter = tags[0].key, tags[0].counter
        assert BitString(sigma, sigma_bits) == auth_server_tag(
            spec, split(key)[0], xor(BitString(delta, delta_bits), key), ch.x_s, nonce.x_t)
        wide = bc._replace(sigma_bits=sigma_bits + extra)
        tag_verify_and_respond(tags[0], ch.x_s, wide, spec)
        assert (tags[0].key, tags[0].counter) == (key, counter)

    @pytest.mark.parametrize("extra", [1, 8, 48])
    def test_finalize_holds_sigma_prime_to_its_width(self, extra):
        """A sigma' whose value matches an expectation but whose width
        differs is rejected, and the session hedges as any rejection does."""
        server, tags = keygen(16, 2, Prng(24, 0))
        ch = server_begin(server)
        nonce = tag_respond_nonce(tags[1])
        bc, pending = server_prepare(server, ch.x_s, nonce.x_t, TOY16)
        answer = tag_verify_and_respond(tags[1], ch.x_s, bc, TOY16).sigma_prime
        assert answer.value in pending.expected and len(answer) == 16
        wide = TagAuth(BitString(answer.value, len(answer) + extra))
        result = server_finalize(server, pending, wide)
        assert not result.accepted
        assert [rec.consecutive_failures for rec in server.records.values()] == [1, 1]
        assert server.records["t002"].counter == 1


class TestBroadcastColumns:
    """A broadcast is its two widths and two columns of ints."""

    def test_counting_the_candidates_builds_no_pair(self):
        """perfbench counts ``len(broadcast.candidates)`` after every scan:
        one entry per candidate, read from a column."""
        server, tags = keygen(16, 3, Prng(30, 0))
        bc, _ = server_prepare(server, BitString(1, 16), BitString(2, 16), TOY16)
        assert len(bc.candidates) == len(bc.sigmas) == len(bc.deltas) == 3


class TestServerFinalize:
    def test_random_sigma_prime_rejected(self):
        server, tags = keygen(64, 1, Prng(16, 0))
        prng = Prng(17, 0)
        for _ in range(1000):
            ch = server_begin(server)
            nonce = tag_respond_nonce(tags[0])
            _, pending = server_prepare(server, ch.x_s, nonce.x_t, PROD64)
            tags[0].pending = None
            result = server_finalize(server, pending, TagAuth(prng_next(prng, 64)))
            assert not result.accepted

    def test_two_tag_isolation(self):
        server, tags = keygen(16, 2, Prng(18, 0))
        rec_a_before = dataclasses.replace(server.records["t001"])
        result = honest_session(server, tags[1], TOY16)
        assert result.accepted and result.label == "t002"
        assert server.records["t001"] == rec_a_before

    def test_exhausted_counter_gets_no_candidate(self):
        # accepting t001 at 2**32 - 1 would move its counter past the width
        # counter_hash binds, so it is never offered; the other tag is
        # unaffected, before and after
        server, tags = keygen(16, 2, Prng(18, 0))
        server.records["t001"].counter = tags[0].counter = 2**32 - 1
        rec_before = dataclasses.replace(server.records["t001"])
        outcomes = [honest_session(server, tags[i], TOY16).accepted for i in (0, 1, 0, 1)]
        assert outcomes == [False, True, False, True]
        ch = server_begin(server)
        _, pending = server_prepare(server, ch.x_s, BitString(2, 16), TOY16)
        assert {c.label for c in pending.candidates} == {"t002"}
        assert server.records["t001"] == rec_before

    def test_tied_expectation_fails_closed(self):
        # two records with the same current key and counter expect the same
        # sigma', so the tag's honest answer matches both: no record is
        # identified, the session is rejected and both records hedge
        server, tags = keygen(16, 2, Prng(25, 0))
        server.records["t002"].key_current = key = tags[0].key
        ch = server_begin(server)
        nonce = tag_respond_nonce(tags[0])
        bc, pending = server_prepare(server, ch.x_s, nonce.x_t, TOY16)
        ta = tag_verify_and_respond(tags[0], ch.x_s, bc, TOY16)
        assert tags[0].counter == 2 and pending.expected.count(ta.sigma_prime.value) == 2
        assert not server_finalize(server, pending, ta).accepted
        assert [(rec.counter, rec.consecutive_failures) for rec in server.records.values()] \
            == [(1, 1), (1, 1)]
        assert offered_keys(server, TOY16) == {"t001": [key, tags[0].key],
                                               "t002": [key, tags[0].key]}

    def test_all_records_exhausted_broadcasts_nothing(self):
        server, tags = keygen(16, 2, Prng(26, 0))
        for rec, tag in zip(server.records.values(), tags):
            rec.counter = tag.counter = 2**32 - 1
        before = [dataclasses.replace(rec) for rec in server.records.values()]
        ch = server_begin(server)
        nonce = tag_respond_nonce(tags[0])
        bc, pending = server_prepare(server, ch.x_s, nonce.x_t, TOY16)
        assert bc == BroadcastAuth(0, 0, (), ()) and pending.candidates == pending.expected == ()
        ta = tag_verify_and_respond(tags[0], ch.x_s, bc, TOY16)
        assert not server_finalize(server, pending, ta).accepted
        assert list(server.records.values()) == before

    def test_timeout_parks_recovery_key(self):
        server, tags = keygen(16, 1, Prng(19, 0))
        ch = server_begin(server)
        nonce = tag_respond_nonce(tags[0])
        _, pending = server_prepare(server, ch.x_s, nonce.x_t, TOY16)
        expected_next = pending.candidates[0].next_key(pending.ops)
        tags[0].pending = None
        key = tags[0].key
        result = server_timeout(server, pending)
        assert not result.accepted
        assert offered_keys(server, TOY16) == {"t001": [key, expected_next]}
        assert server.records["t001"].consecutive_failures == 1

    @pytest.mark.parametrize("spec", [TOY16, PROD64], ids=["toy16", "production64"])
    @pytest.mark.parametrize("n", [1, 4])
    @pytest.mark.parametrize("failure", ["drop-3", "reject-4"])
    def test_failure_parks_the_bitstring_key_update(self, spec, n, failure):
        """After a failed session the next broadcast offers every record its
        current key ``k`` and ``key_update(spec, k'', x'', x_s)`` of ``k``
        and its partial key ``x``, computed on bit strings; the current key
        and counter stay. Every other record first completes a session, so
        the failed session's broadcast mixes both slots."""
        lam = spec.output_len_bits
        server, tags = keygen(lam, n, Prng(30 + n, 0))
        for tag in tags[::2]:
            assert honest_session(server, tag, spec).accepted
        before = {label: (rec.key_current, rec.counter) for label, rec in server.records.items()}
        ch = server_begin(server)
        nonce = tag_respond_nonce(tags[-1])
        bc, pending = server_prepare(server, ch.x_s, nonce.x_t, spec)
        if failure == "drop-3":
            tags[-1].pending = None
            result = server_timeout(server, pending)
        else:
            ta = tag_verify_and_respond(tags[-1], ch.x_s, bc, spec)
            result = server_finalize(server, pending, TagAuth(ta.sigma_prime.flip(0)))
        assert not result.accepted
        offered = offered_keys(server, spec)
        for label, (key, counter) in before.items():
            _, k_dprime = split(key)
            _, x_dprime = split(partial_key(spec, counter, server.master, key))
            rec = server.records[label]
            assert (rec.counter, rec.consecutive_failures) == (counter, 1)
            assert offered[label] == [key, key_update(spec, k_dprime, x_dprime, ch.x_s)]


class TestCostAccounting:
    @pytest.mark.parametrize("n_tags", [2, 3, 5])
    def test_multi_candidate_session_is_three_plus_c(self, n_tags):
        server, tags = keygen(16, n_tags, Prng(21, 0))
        tag = tags[0]
        ch = server_begin(server)
        nonce = tag_respond_nonce(tag)
        bc, pending = server_prepare(server, ch.x_s, nonce.x_t, TOY16)
        c = len(bc.sigmas)
        h0, p0, x0 = tag.meter.snapshot()
        ta = tag_verify_and_respond(tag, ch.x_s, bc, TOY16)
        h1, p1, x1 = tag.meter.snapshot()
        assert server_finalize(server, pending, ta).accepted
        assert (h1 - h0) == c + 2  # c verifications + answer + ratchet
        assert x1 - x0 == c

    @pytest.mark.parametrize("n_records", [1, 4, 9])
    def test_steady_state_server_hash_calls(self, n_records):
        """One honest steady-state session with N records, so 2N candidates,
        costs the server exactly 4N + 3 hashes: 2 per candidate (sigma and
        the expected sigma'), 2 partial-key refreshes for the record accepted
        last (its counter moved, so both of its slots are rebuilt), and 1
        next key for the matched candidate. The 2 refreshes are the only
        XORs (their deltas)."""
        server, tags = keygen(64, n_records, Prng(33, 0))
        for tag in tags:  # every record accepted once: both slots live
            assert honest_session(server, tag, PROD64).accepted
        for idx in (0, n_records // 2, n_records // 2):
            meter = OpMeter()
            with metered(meter):  # the tag's calls count to its own meter
                assert honest_session(server, tags[idx], PROD64).accepted
            assert meter.hash_calls == 4 * n_records + 3
            assert meter.xor_calls == 2

    def test_hardened_scan_cost_independent_of_match_position(self):
        # same candidate count, different match positions, same hash count
        counts = []
        for seed in (30, 31, 32):
            server, tags = keygen(16, 4, Prng(seed, 0))
            tag = tags[seed % 4]
            ch = server_begin(server)
            nonce = tag_respond_nonce(tag)
            bc, _ = server_prepare(server, ch.x_s, nonce.x_t, TOY16)
            h0 = tag.meter.hash_calls
            tag_verify_and_respond(tag, ch.x_s, bc, TOY16)
            counts.append(tag.meter.hash_calls - h0)
        assert len(set(counts)) == 1


def _with_previous(lam, seed):
    """A record whose both key slots are live, at a counter past 1."""
    server, _ = keygen(lam, 1, Prng(seed, 0))
    rec = server.records["t001"]
    rec.key_previous = prng_next(Prng(seed, 1), lam)
    rec.counter = 1 + seed
    return server, rec


def _left_term(left, n_right):
    base, left_shift, _, _ = hash2_layout(len(left), n_right)
    return base | left.value << left_shift


def _right_term(n_left, right):
    return right.value << hash2_layout(n_left, len(right))[2]


# Toy and production specs, with a production width past 64 bits, whose
# digest is not read from the first 8 bytes alone.
SLOT_SPECS = [TOY8, TOY16, HashSpec.production(16), PROD64, HashSpec.production(128)]
SPEC_IDS = [f"{spec.variant}{spec.output_len_bits}" for spec in SLOT_SPECS]
SLOTS = ("current", "previous")


class TestSlotKeys:
    """A record slot's keys are built from ints at one hash and one XOR, and
    its next key at one hash; every value equals the one the paper's
    bitstring formulas give."""

    @pytest.mark.parametrize("spec", SLOT_SPECS, ids=SPEC_IDS)
    @pytest.mark.parametrize("slot", SLOTS)
    @pytest.mark.parametrize("seed", [5, 6])
    def test_costs_and_values_equal_the_bitstring_reference(self, spec, slot, seed):
        lam = spec.output_len_bits
        server, rec = _with_previous(lam, seed)
        x_s = prng_next(Prng(seed, 2), lam)
        ops = session_operands(spec, x_s, prng_next(Prng(seed, 3), lam))
        with metered(OpMeter()) as build:
            keys = slot_keys(spec, server.master, "t001", rec, slot)
        with metered(OpMeter()) as update:
            next_key = keys.next_key(ops)
        assert build.snapshot() == (1, 0, 1)  # the partial key and delta
        assert update.snapshot() == (1, 0, 0)
        key = rec.key_current if slot == "current" else rec.key_previous
        x = partial_key(spec, rec.counter, server.master, key)
        k_prime, k_dprime = split(key)
        x_prime, x_dprime = split(x)
        assert keys == ("t001", slot, rec.counter, key, lam, xor(key, x),
                        _left_term(k_prime + x, 2 * lam),
                        _right_term(2 * lam, session_key(k_prime, x_prime)),
                        _left_term(k_dprime + x_dprime, lam))
        assert (ops.s_term, ops.next_bytes) == (_right_term(lam, x_s), hash2_layout(lam, lam)[3])
        assert next_key == key_update(spec, k_dprime, x_dprime, x_s)

    @pytest.mark.parametrize("spec", SLOT_SPECS, ids=SPEC_IDS)
    @pytest.mark.parametrize("width", [-2, -1, 1, 2])
    def test_next_key_checks_the_challenge_width(self, spec, width):
        """A slot's next key in a session of another width raises before it
        hashes."""
        refused(f"next_key-{spec.variant}{spec.output_len_bits}-{width:+d}")

    def test_odd_key_width_raises(self):
        refused("slot_keys-odd-key")

    @pytest.mark.parametrize("spec", [HashSpec.toy(14), HashSpec.production(18)],
                             ids=["toy14", "production18"])
    def test_partial_key_of_another_width_raises(self, spec):
        refused(f"slot_keys-partial-key-{spec.variant}{spec.output_len_bits}")


class TestPadProperty:
    def test_delta_admits_one_partial_key_per_key_hypothesis(self):
        # on a real wire value: every key hypothesis explains delta with
        # exactly one partial key, so delta alone pins nothing
        server, tags = keygen(8, 1, Prng(24, 0))
        ch = server_begin(server)
        nonce = tag_respond_nonce(tags[0])
        bc, _ = server_prepare(server, ch.x_s, nonce.x_t, TOY8)
        delta = BitString(bc.deltas[0], bc.delta_bits)
        xs = {xor(delta, BitString(k, 8)) for k in range(256)}
        assert len(xs) == 256


class TestForwardOneWayness:
    def test_key_recovery_needs_exhaustive_search(self):
        # given one full transcript plus the successor key, nothing in the
        # update formula yields the prior key in closed form: the brute-force
        # oracle below (full enumeration of the key space) is the designated
        # solver, and it pins the unique consistent prior key
        spec = HashSpec.toy(16)
        server, tags = keygen(16, 1, Prng(23, 0))
        k_i = tags[0].key
        ch = server_begin(server)
        nonce = tag_respond_nonce(tags[0])
        bc, pending = server_prepare(server, ch.x_s, nonce.x_t, spec)
        ta = tag_verify_and_respond(tags[0], ch.x_s, bc, spec)
        server_finalize(server, pending, ta)
        k_next = tags[0].key
        sigma_bits, delta_bits, (sigma,), (delta,) = bc
        sigma, delta = BitString(sigma, sigma_bits), BitString(delta, delta_bits)

        survivors = []
        for guess in range(1 << 16):
            k_hat = BitString(guess, 16)
            x_hat = xor(delta, k_hat)
            kp, kd = split(k_hat)
            xp, xd = split(x_hat)
            if auth_server_tag(spec, kp, x_hat, ch.x_s, nonce.x_t) != sigma:
                continue
            if key_update(spec, kd, xd, ch.x_s) == k_next:
                survivors.append(k_hat)
        assert survivors == [k_i]


def _record(seed, **fields):
    """The server of :func:`_with_previous` at 16 bits, its record's
    ``fields`` set."""
    server, rec = _with_previous(16, seed)
    for name, value in fields.items():
        setattr(rec, name, value)
    return server


def _begun(seed, n=1, edits=()):
    """A 16-bit server of ``n`` records, each ``(label, field, value)`` of
    ``edits`` set, past flight 1 (so its stream holds buffered bits): the
    server, its tags and the challenge."""
    server, tags = keygen(16, n, Prng(seed, 0))
    for label, name, value in edits:
        setattr(server.records[label], name, value)
    return server, tags, server_begin(server).x_s


def _at_flight_3(seed, n=1, tag_key=None):
    """A 16-bit world whose tag t001 has a nonce in flight, its key then
    replaced by ``tag_key`` if given: the server, the tags, the challenge and
    the honest broadcast."""
    server, tags, x_s = _begun(seed, n)
    bc, _ = server_prepare(server, x_s, tag_respond_nonce(tags[0]).x_t, TOY16)
    if tag_key:
        tags[0].key = tag_key
    return server, tags, x_s, bc


def _next_key(spec, width):
    """A slot's next key in a session ``width`` bits wider than its key,
    under ``spec``, counted on the world's meter."""
    lam = spec.output_len_bits

    def call(world):
        server, meter = world
        keys = slot_keys(spec, server.master, "t001", server.records["t001"], "current")
        ops = session_operands(spec, *_bits(lam + width, lam + width))
        with metered(meter):
            keys.next_key(ops)
    return (lambda: (_with_previous(lam, 7)[0], OpMeter()), call, LengthError,
            _lengths(lam, lam + width))


def _bits(*widths):
    return [BitString(0, width) for width in widths]


def _broadcast(sigma_bits, delta_bits, n=1):
    """A broadcast of ``n`` all-zero candidates of the given widths."""
    return BroadcastAuth(sigma_bits, delta_bits, (0,) * n, (0,) * n)


def _lengths(*widths):
    return f"inconsistent operand lengths: {list(widths)}"


# Every call the protocol module refuses: (a function that builds the world
# the call may change, or None; the call, given that world, which it must
# leave as it was; its error class and its message). Width checks made once
# per session run before the broadcast shuffle and the tag's first hash, so a
# refused session leaves every stream and meter where it was. The one test
# that names a row makes its call, through :func:`refused`.
REFUSED_CALLS = {
    "keygen-63-bits": (lambda: Prng(0, 0), lambda p: keygen(63, 1, p), ParameterError,
                       "key width must be even and >= 8, got 63"),
    "keygen-6-bits": (lambda: Prng(0, 0), lambda p: keygen(6, 1, p), ParameterError,
                      "key width must be even and >= 8, got 6"),
    "keygen-no-tags": (lambda: Prng(0, 0), lambda p: keygen(64, 0, p), ParameterError,
                       "need at least one tag"),
    "session_key": (None, lambda _: session_key(*_bits(8, 7)), LengthError, _lengths(8, 7)),
    "key_update": (None, lambda _: key_update(TOY16, *_bits(8, 8, 15)), LengthError,
                   _lengths(8, 8, 15)),
    "auth_server_tag": (None, lambda _: auth_server_tag(TOY16, *_bits(8, 16, 16, 15)),
                        LengthError, _lengths(8, 16, 16, 15)),
    "auth_tag_msg": (None, lambda _: auth_tag_msg(TOY16, *_bits(16, 16, 15)), LengthError,
                     _lengths(16, 16, 15)),
    "session_operands": (None, lambda _: session_operands(TOY16, *_bits(16, 15)), LengthError,
                         _lengths(16, 15)),
    "slot_keys-odd-key": (lambda: _record(8, key_current=BitString(0x1234, 15)),
                          lambda server: slot_keys(HashSpec.toy(15), server.master, "t001",
                                                   server.records["t001"], "current"),
                          LengthError, "cannot split odd length 15"),
    **{f"slot_keys-partial-key-{spec.variant}{spec.output_len_bits}": (
        lambda: _record(9),
        lambda server, spec=spec: slot_keys(spec, server.master, "t001",
                                            server.records["t001"], "current"),
        LengthError, _lengths(16, 16, spec.output_len_bits))
       for spec in (HashSpec.toy(14), HashSpec.production(18))},
    # an 8-bit key under an 8-bit hash, with the 16-bit master: the partial
    # key is as wide as the key, so only the master's width tells
    "slot_keys-key-narrower-than-the-master": (
        lambda: _record(29, key_current=BitString(0x5A, 8)),
        lambda server: slot_keys(TOY8, server.master, "t001", server.records["t001"], "current"),
        LengthError, _lengths(8, 16, 8)),
    **{f"next_key-{spec.variant}{spec.output_len_bits}-{width:+d}": _next_key(spec, width)
       for spec in SLOT_SPECS for width in (-2, -1, 1, 2)},
    "make_candidate-of-another-width": (
        lambda: keygen(16, 1, Prng(24, 0))[0],
        lambda server: make_candidate(
            (slot_keys(TOY16, server.master, "t001", server.records["t001"], "current"),),
            session_operands(TOY16, *_bits(8, 8))),
        LengthError, _lengths(16, 8, 8)),
    **{f"server_prepare-{x_s}-{x_t}-bits": (
        lambda: keygen(16, 2, Prng(20, 0))[0],
        lambda server, x_s=x_s, x_t=x_t: server_prepare(server, *_bits(x_s, x_t), TOY16),
        LengthError, _lengths(*widths))
       for x_s, x_t, widths in [(16, 15, (16, 15)), (15, 16, (15, 16)), (14, 14, (16, 14, 14))]},
    "server_prepare-wider-than-the-master": (
        lambda: _begun(26, 3, [("t002", "key_previous", BitString(0x5A5A, 16))]),
        lambda w: server_prepare(w[0], *_bits(32, 32), TOY16), LengthError, _lengths(16, 32, 32)),
    "server_prepare-key-narrower-than-the-master": (
        lambda: _begun(26, 3, [("t002", "key_previous", BitString(0x5A5A, 16)),
                               ("t001", "key_current", BitString(0x5A, 8))]),
        lambda w: server_prepare(w[0], *_bits(16, 16), TOY8), LengthError, _lengths(8, 16, 8)),
    "server_prepare-previous-key-narrower": (
        lambda: _begun(27, edits=[("t001", "key_previous", BitString(0, 8))]),
        lambda w: server_prepare(w[0], w[2], BitString(0, 16), TOY16), LengthError,
        _lengths(8, 16, 16)),
    "tag_scan-without-session": (lambda: keygen(16, 1, Prng(14, 0))[1],
                                 lambda tags: tag_verify_and_respond(
                                     tags[0], BitString(0, 16), _broadcast(16, 16), TOY16),
                                 SessionOrderError, "no session in flight on this tag"),
    "tag_scan-narrow-challenge": (lambda: _at_flight_3(22),
                                  lambda w: tag_verify_and_respond(w[1][0], BitString(0, 15),
                                                                   w[3], TOY16),
                                  LengthError, _lengths(15, 16)),
    "tag_scan-narrow-tag-key": (lambda: _at_flight_3(28, tag_key=BitString(0, 8)),
                                lambda w: tag_verify_and_respond(w[1][0], w[2], w[3], TOY16),
                                LengthError, _lengths(8, 16, 16)),
    "tag_scan-narrow-delta": (lambda: _at_flight_3(25),
                              lambda w: tag_verify_and_respond(w[1][0], w[2],
                                                               _broadcast(16, 15), TOY16),
                              LengthError, "broadcast deltas are 15 bits, the key 16"),
    "tag_scan-narrow-deltas": (lambda: _at_flight_3(21, 2),
                               lambda w: tag_verify_and_respond(w[1][0], w[2],
                                                                _broadcast(16, 15, 3), TOY16),
                               LengthError, "broadcast deltas are 15 bits, the key 16"),
}


def refused(case):
    """Make the refused call of row ``case``: it raises its error with its
    message and leaves its world as it was."""
    setup, call, error, message = REFUSED_CALLS[case]
    world = setup() if setup else None
    before = copy.deepcopy(world)
    with pytest.raises(error) as err:
        call(world)
    assert (type(err.value), str(err.value)) == (error, message)
    assert world == before
