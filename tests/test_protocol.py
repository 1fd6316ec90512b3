"""Protocol algorithm and state-machine contracts."""

import dataclasses

import pytest

from kimap import protocol
from kimap.bits import (BitString, HashSpec, OpMeter, Prng, counter_hash, hash2_layout, metered,
                        prng_next, split, xor)
from kimap.protocol import (
    BroadcastAuth,
    LengthError,
    ParameterError,
    ServerAuthCandidate,
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


def honest_session(server, tag, spec, label=None):
    ch = server_begin(server)
    nonce = tag_respond_nonce(tag)
    bc, pending = server_prepare(server, ch.x_s, nonce.x_t, spec)
    ta = tag_verify_and_respond(tag, ch.x_s, bc, spec)
    return server_finalize(server, pending, ta)


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
        with pytest.raises(ParameterError):
            keygen(63, 1, Prng(0, 0))

    def test_tiny_width_rejected(self):
        with pytest.raises(ParameterError):
            keygen(6, 1, Prng(0, 0))

    def test_no_tags_rejected(self):
        with pytest.raises(ParameterError):
            keygen(64, 0, Prng(0, 0))

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
        assert len(bc.candidates) == 3

    def test_candidate_count_with_previous(self):
        server, tags = keygen(16, 3, Prng(10, 0))
        honest_session(server, tags[0], TOY16)  # first record gains a previous key
        bc, _ = server_prepare(server, BitString(1, 16), BitString(2, 16), TOY16)
        assert len(bc.candidates) == 4

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
        mangled = BroadcastAuth.of(tuple(
            ServerAuthCandidate(c.sigma.flip(0), c.delta) for c in bc.candidates))
        ta = tag_verify_and_respond(tags[0], ch.x_s, mangled, TOY16)
        assert len(ta.sigma_prime) == 16
        assert tags[0].key == k_before
        assert tags[0].counter == 1

    def test_requires_session_in_flight(self):
        server, tags = keygen(16, 1, Prng(14, 0))
        bc = BroadcastAuth.of((ServerAuthCandidate(BitString(0, 16), BitString(0, 16)),))
        with pytest.raises(SessionOrderError):
            tag_verify_and_respond(tags[0], BitString(0, 16), bc, TOY16)

    def test_pending_erased_on_both_paths(self):
        server, tags = keygen(16, 1, Prng(15, 0))
        honest_session(server, tags[0], TOY16)
        assert tags[0].pending is None
        ch = server_begin(server)
        tag_respond_nonce(tags[0])
        bad = BroadcastAuth.of((ServerAuthCandidate(BitString(0, 16), BitString(0, 16)),))
        tag_verify_and_respond(tags[0], ch.x_s, bad, TOY16)
        assert tags[0].pending is None


def _make_candidate_of_other_width():
    server, _ = keygen(16, 1, Prng(24, 0))
    keys = slot_keys(TOY16, server.master, "t001", server.records["t001"], "current")
    make_candidate((keys,), session_operands(TOY16, BitString(0, 8), BitString(0, 8)))


def _slot_keys_of_key_narrower_than_the_master():
    """An 8-bit key under an 8-bit hash, with the 16-bit master: the partial
    key is as wide as the key, so only the master's width tells."""
    server, _ = keygen(16, 1, Prng(29, 0))
    rec = server.records["t001"]
    rec.key_current = BitString(0x5A, 8)
    slot_keys(TOY8, server.master, "t001", rec, "current")


def _tag_scan_of_narrow_delta():
    server, tags = keygen(16, 1, Prng(25, 0))
    ch = server_begin(server)
    tag_respond_nonce(tags[0])
    bad = ServerAuthCandidate(BitString(0, 16), BitString(0, 15))
    tag_verify_and_respond(tags[0], ch.x_s, BroadcastAuth.of((bad,)), TOY16)


def _server_prepare_of_narrow_previous_key():
    server, tags = keygen(16, 1, Prng(27, 0))
    server.records["t001"].key_previous = BitString(0, 8)
    ch = server_begin(server)
    server_prepare(server, ch.x_s, tag_respond_nonce(tags[0]).x_t, TOY16)


def _tag_scan_of_narrow_tag_key():
    server, tags = keygen(16, 1, Prng(28, 0))
    ch = server_begin(server)
    bc, _ = server_prepare(server, ch.x_s, tag_respond_nonce(tags[0]).x_t, TOY16)
    tags[0].key = BitString(0, 8)
    tag_verify_and_respond(tags[0], ch.x_s, bc, TOY16)


class TestWidthChecks:
    """Operands of the wrong width raise, whether they are checked once per
    session or once per candidate."""

    @pytest.mark.parametrize("broken", [
        lambda: xor(BitString(0, 4), BitString(0, 5)),
        lambda: split(BitString(0, 5)),
        lambda: BitString(16, 4),
        lambda: counter_hash(TOY16, 2**32, BitString(0, 16), BitString(0, 16)),
        lambda: session_operands(TOY16, BitString(0, 16), BitString(0, 15)),
        _slot_keys_of_key_narrower_than_the_master,
        _make_candidate_of_other_width,
        _tag_scan_of_narrow_delta,
        _server_prepare_of_narrow_previous_key,
        _tag_scan_of_narrow_tag_key,
    ], ids=["xor", "split", "bitstring", "counter_hash", "session_operands",
            "slot_keys_master", "make_candidate",
            "tag_scan_delta", "server_prepare_previous_key", "tag_scan_tag_key"])
    def test_every_width_check_raises_length_error(self, broken):
        with pytest.raises(LengthError):
            broken()

    @pytest.mark.parametrize("x_s_len,x_t_len", [(16, 15), (15, 16), (14, 14)])
    def test_server_prepare_rejects_wrong_width_operands(self, x_s_len, x_t_len):
        server, _ = keygen(16, 2, Prng(20, 0))
        with pytest.raises(LengthError):
            server_prepare(server, BitString(0, x_s_len), BitString(0, x_t_len), TOY16)

    @pytest.mark.parametrize("narrow_key,width,spec", [(False, 32, TOY16), (True, 16, TOY8)],
                             ids=["session", "record"])
    def test_width_error_leaves_the_prng_unmoved(self, narrow_key, width, spec):
        """The session and every slot are held to the master's width before
        the broadcast shuffle, so a session that does not fit the master, or
        a record whose key does not, raises with the server's stream where
        it was."""
        server, _ = keygen(16, 3, Prng(26, 0))
        server.records["t002"].key_previous = BitString(0x5A5A, 16)
        if narrow_key:  # an 8-bit key under an 8-bit hash, with the 16-bit master
            server.records["t001"].key_current = BitString(0x5A, 8)
        server_begin(server)  # the stream holds buffered bits
        before = (server.prng._counter, server.prng._acc, server.prng._acc_bits)
        with pytest.raises(LengthError):
            server_prepare(server, BitString(0, width), BitString(0, width), spec)
        assert (server.prng._counter, server.prng._acc, server.prng._acc_bits) == before

    def test_tag_scan_rejects_wrong_width_delta(self):
        """A broadcast's deltas share one width, so a delta of another width
        beside the honest ones is refused where the broadcast is built; the
        tag's scan refuses deltas of a width other than its key's before it
        hashes any candidate."""
        server, tags = keygen(16, 2, Prng(21, 0))
        ch = server_begin(server)
        nonce = tag_respond_nonce(tags[0])
        bc, _ = server_prepare(server, ch.x_s, nonce.x_t, TOY16)
        bad = ServerAuthCandidate(bc.candidates[-1].sigma, BitString(0, 15))
        with pytest.raises(LengthError, match=r"broadcast deltas mix widths \[15, 16\]"):
            BroadcastAuth.of((*bc.candidates, bad))
        hashes = tags[0].meter.hash_calls
        with pytest.raises(LengthError, match="broadcast deltas are 15 bits, the key 16"):
            tag_verify_and_respond(tags[0], ch.x_s, BroadcastAuth.of((bad,) * 3), TOY16)
        assert tags[0].meter.hash_calls == hashes

    def test_tag_scan_rejects_wrong_width_challenge(self):
        server, tags = keygen(16, 1, Prng(22, 0))
        ch = server_begin(server)
        nonce = tag_respond_nonce(tags[0])
        bc, _ = server_prepare(server, ch.x_s, nonce.x_t, TOY16)
        with pytest.raises(LengthError):
            tag_verify_and_respond(tags[0], BitString(0, 15), bc, TOY16)

    @pytest.mark.parametrize("spec", [TOY16, HashSpec.production(16)])
    @pytest.mark.parametrize("extra", [1, 8, 48])
    def test_tag_scan_holds_sigma_to_its_width(self, spec, extra):
        """A candidate whose sigma has the digest's value but another width
        does not authenticate the server."""
        server, tags = keygen(16, 1, Prng(23, 0))
        ch = server_begin(server)
        nonce = tag_respond_nonce(tags[0])
        bc, _ = server_prepare(server, ch.x_s, nonce.x_t, spec)
        (sigma, delta), = bc.candidates
        assert sigma == auth_server_tag(spec, split(tags[0].key)[0], xor(delta, tags[0].key),
                                        ch.x_s, nonce.x_t)
        wide = ServerAuthCandidate(BitString(sigma.value, len(sigma) + extra), delta)
        key, counter = tags[0].key, tags[0].counter
        tag_verify_and_respond(tags[0], ch.x_s, BroadcastAuth.of((wide,)), spec)
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
    """A broadcast is its two widths and two columns of ints; its
    candidates are read as pairs of bit strings and built from them."""

    @pytest.mark.parametrize("column", ["sigma", "delta"])
    def test_mixed_widths_are_refused_where_a_broadcast_is_built(self, column):
        wide, narrow = BitString(0xBEEF, 16), BitString(0xAD, 8)
        odd = {"sigma": ServerAuthCandidate(narrow, wide),
               "delta": ServerAuthCandidate(wide, narrow)}
        with pytest.raises(LengthError, match=rf"broadcast {column}s mix widths \[8, 16\]"):
            BroadcastAuth.of([ServerAuthCandidate(wide, wide), odd[column]])

    def test_columns_hold_the_pairs_in_order(self):
        pairs = [ServerAuthCandidate(BitString(v, 12), BitString(v ^ 0x3, 6)) for v in (7, 9, 33)]
        bc = BroadcastAuth.of(pairs)
        assert bc == (12, 6, (7, 9, 33), (4, 10, 34))
        assert len(bc.candidates) == 3 and list(bc.candidates) == pairs
        assert (bc.candidates[0], bc.candidates[-1]) == (pairs[0], pairs[-1])
        assert BroadcastAuth.of(()) == (0, 0, (), ())

    def test_counting_the_candidates_builds_no_pair(self, monkeypatch):
        """perfbench counts ``len(broadcast.candidates)`` after every scan."""
        server, tags = keygen(16, 3, Prng(30, 0))
        bc, _ = server_prepare(server, BitString(1, 16), BitString(2, 16), TOY16)
        monkeypatch.setattr(protocol, "_trusted", None)
        assert len(bc.candidates) == 3


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
        assert bc == BroadcastAuth.of(()) and pending.candidates == pending.expected == ()
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
        c = len(bc.candidates)
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
        lam = spec.output_len_bits
        server, rec = _with_previous(lam, 7)
        keys = slot_keys(spec, server.master, "t001", rec, "current")
        ops = session_operands(spec, BitString(0, lam + width), BitString(0, lam + width))
        with metered(OpMeter()) as meter, pytest.raises(LengthError):
            keys.next_key(ops)
        assert meter.hash_calls == 0

    def test_odd_key_width_raises(self):
        server, rec = _with_previous(16, 8)
        rec.key_current = BitString(0x1234, 15)
        with pytest.raises(LengthError, match="odd length 15"):
            slot_keys(HashSpec.toy(15), server.master, "t001", rec, "current")

    @pytest.mark.parametrize("spec", [HashSpec.toy(14), HashSpec.production(18)],
                             ids=["toy14", "production18"])
    def test_partial_key_of_another_width_raises(self, spec):
        server, rec = _with_previous(16, 9)
        with pytest.raises(LengthError, match="inconsistent operand lengths"):
            slot_keys(spec, server.master, "t001", rec, "current")


class TestPadProperty:
    def test_delta_admits_one_partial_key_per_key_hypothesis(self):
        # on a real wire value: every key hypothesis explains delta with
        # exactly one partial key, so delta alone pins nothing
        server, tags = keygen(8, 1, Prng(24, 0))
        ch = server_begin(server)
        nonce = tag_respond_nonce(tags[0])
        bc, _ = server_prepare(server, ch.x_s, nonce.x_t, TOY8)
        delta = bc.candidates[0].delta
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
        sigma, delta = bc.candidates[0].sigma, bc.candidates[0].delta

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
