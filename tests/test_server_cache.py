"""The server's cached, lazy flight-3 path against a straight reference.

``server_prepare`` serves each slot's partial key, delta and key
concatenations from a per-slot cache, and the pending session keeps only
each candidate's slot and expected ``sigma'``, whose next key is computed
only when a session commits or hedges. The reference below recomputes all
four hashes of every candidate on every session, as the paper's flight 3
states them. Over random multi-tag fault schedules, with a database round
trip and direct record mutations mid-run, both must give the same
broadcast, the same expected ``sigma'`` and next key for every candidate,
and the same server, records in the same order and stream included, after
every session.

The tag side is held to the same reference: over even widths 8-64 and both
hash variants, each candidate's ``sigma`` and expected ``sigma'`` are the
digests of :func:`auth_server_tag` and :func:`auth_tag_msg`, and the tag scan
accepts exactly the first candidate whose ``sigma`` equals the reference
``auth_server_tag`` of its ``delta``, mangled broadcasts included.
"""

from dataclasses import dataclass

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kimap.bits import BitString, HashSpec, Prng, prng_next, split, xor
from kimap.protocol import (
    BroadcastAuth,
    PendingSession,
    TagAuth,
    auth_server_tag,
    auth_tag_msg,
    key_update,
    keygen,
    make_candidate,
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
from kimap.storage import load_database, save_database

SPECS = {64: HashSpec.production(64), 16: HashSpec.toy(16)}


@dataclass
class RefCandidate:
    label: str
    slot: str
    sigma: BitString
    delta: BitString
    expected: BitString
    next_key: BitString


def ref_prepare(server, x_s, x_t, spec) -> list[RefCandidate]:
    """Every candidate's four hashes, from the record state alone."""
    entries = []
    for label, rec in server.records.items():
        for slot, key in (("current", rec.key_current), ("previous", rec.key_previous)):
            if key is None:
                continue
            x = partial_key(spec, rec.counter, server.master, key)
            k_prime, k_dprime = split(key)
            x_prime, x_dprime = split(x)
            entries.append(RefCandidate(
                label=label, slot=slot,
                sigma=auth_server_tag(spec, k_prime, x, x_s, x_t),
                delta=xor(key, x),
                expected=auth_tag_msg(spec, x_t, x_s, session_key(k_prime, x_prime)),
                next_key=key_update(spec, k_dprime, x_dprime, x_s)))
    server.prng.shuffle(entries)
    return entries


def record_slots(spec, server):
    """The :class:`~kimap.protocol.SlotKeys` of every live key slot, record
    by record, each built by ``slot_keys`` from its record's key and
    counter."""
    return [slot_keys(spec, server.master, label, slot, rec.counter, key)
            for label, rec in server.records.items()
            for slot, key in (("current", rec.key_current), ("previous", rec.key_previous))
            if key is not None]


def ref_broadcast(entries: list[RefCandidate]) -> BroadcastAuth:
    """The broadcast of ``entries``, in order: every entry's sigma and
    delta as an int."""
    return BroadcastAuth(tuple(e.sigma.value for e in entries),
                         tuple(e.delta.value for e in entries))


def ref_finalize(server, entries: list[RefCandidate], sigma_prime) -> None:
    """Accept on exactly one match, else park every record's next key."""
    matches = [e for e in entries if sigma_prime is not None and e.expected == sigma_prime]
    if len(matches) == 1:
        cand = matches[0]
        rec = server.records[cand.label]
        rec.key_previous = rec.key_current if cand.slot == "current" else rec.key_previous
        rec.key_current = cand.next_key
        rec.counter += 1
        rec.consecutive_failures = 0
        return
    for cand in entries:
        if cand.slot == "current":
            rec = server.records[cand.label]
            rec.key_previous = cand.next_key
            rec.consecutive_failures += 1


FAULTS = ("none", "none", "drop-2", "drop-3", "drop-4", "replace-4", "replay-3")

session_steps = st.tuples(
    st.integers(0, 3),                        # tag index (mod the tag count)
    st.sampled_from(FAULTS),
    st.integers(0, (1 << 64) - 1),            # bits for a replacement or mutation
    st.sampled_from(("none", "none", "none", "round-trip", "set-previous", "clear-previous")),
)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lam=st.sampled_from(sorted(SPECS)), n_tags=st.integers(1, 4), seed=st.integers(0, 1 << 16),
       steps=st.lists(session_steps, min_size=1, max_size=24))
def test_cached_server_matches_reference(tmp_path, lam, n_tags, seed, steps):
    spec = SPECS[lam]
    server, tags = keygen(lam, n_tags, Prng(seed, 0))
    ref, _ = keygen(lam, n_tags, Prng(seed, 0))
    broadcasts = []
    for tag_idx, fault, bits, event in steps:
        value = BitString(bits >> (64 - lam), lam)
        label = list(server.records)[tag_idx % n_tags]
        if event == "round-trip":  # kimapdb v1 drops the failure counts on both sides
            for world in (server, ref):
                save_database(tmp_path / "kimap.db", lam, world.records)
                world.records = load_database(tmp_path / "kimap.db")[1]
        elif event in ("set-previous", "clear-previous"):
            previous = value if event == "set-previous" else None
            server.records[label].key_previous = previous
            ref.records[label].key_previous = previous

        tag = tags[tag_idx % n_tags]
        challenge = server_begin(server)
        server_begin(ref)
        nonce = tag_respond_nonce(tag)
        if fault == "drop-2":
            tag.pending = None
            continue
        broadcast, pending = server_prepare(server, challenge.x_s, nonce.x_t, spec)
        entries = ref_prepare(ref, challenge.x_s, nonce.x_t, spec)

        assert broadcast == ref_broadcast(entries)
        assert [(k.label, k.slot, BitString(v, spec.output_len_bits))
                for k, v in zip(pending.candidates, pending.expected, strict=True)] == \
            [(e.label, e.slot, e.expected) for e in entries]
        assert [k.next_key(pending.ops) for k in pending.candidates] == \
            [e.next_key for e in entries]

        if fault == "drop-3":
            tag.pending = None
            server_timeout(server, pending)
            ref_finalize(ref, entries, None)
        else:
            delivered = broadcasts[bits % len(broadcasts)] \
                if fault == "replay-3" and broadcasts else broadcast
            answer = tag_verify_and_respond(tag, challenge.x_s, delivered, spec)
            if fault == "drop-4":
                server_timeout(server, pending)
                ref_finalize(ref, entries, None)
            else:
                if fault == "replace-4":
                    answer = TagAuth(value)
                server_finalize(server, pending, answer)
                ref_finalize(ref, entries, answer.sigma_prime)
        broadcasts.append(broadcast)
        assert server == ref and list(server.records) == list(ref.records)


@pytest.mark.parametrize("change", ["current-key", "previous-key", "counter"])
def test_each_slot_check_holds_on_its_own(change):
    """In the protocol a current key and its record's counter change
    together, so a session alone cannot tell the two halves of the current
    slot's cache check apart. A slot's key replaced at the same counter, or
    the counter moved under both slots' key objects, must be derived
    afresh, as the reference derives it."""
    spec = SPECS[64]
    server, _ = keygen(64, 2, Prng(5, 0))
    ref, _ = keygen(64, 2, Prng(5, 0))
    x_s, x_t = BitString(0x0123456789ABCDEF, 64), BitString(0xFEDCBA9876543210, 64)
    for world in (server, ref):
        world.records["t001"].key_previous = BitString(0x5A5A5A5A5A5A5A5A, 64)
    server_prepare(server, x_s, x_t, spec)  # fills both slot caches
    ref_prepare(ref, x_s, x_t, spec)
    for world in (server, ref):
        rec = world.records["t001"]
        if change == "counter":
            rec.counter += 1
        elif change == "current-key":
            rec.key_current = rec.key_current.flip(0)
        else:
            rec.key_previous = rec.key_previous.flip(0)

    broadcast, pending = server_prepare(server, x_s, x_t, spec)
    entries = ref_prepare(ref, x_s, x_t, spec)
    assert broadcast == ref_broadcast(entries)
    assert [(k.label, k.slot, BitString(v, spec.output_len_bits))
            for k, v in zip(pending.candidates, pending.expected, strict=True)] == \
        [(e.label, e.slot, e.expected) for e in entries]


@pytest.mark.parametrize("first, second", [(HashSpec.toy(16), HashSpec.production(16)),
                                           (HashSpec.production(16), HashSpec.toy(16))])
def test_spec_switch_serves_the_new_specs_slots(first, second):
    """The slot cache is keyed by the spec and master key its entries were
    built under, so a live server prepared under one spec and then another
    broadcasts the second spec's candidates, for both key slots."""
    server, _ = keygen(16, 2, Prng(7, 0))
    server.records["t001"].key_previous = BitString(0x5A5A, 16)
    x_s, x_t = BitString(0x0123, 16), BitString(0xFEDC, 16)
    server_prepare(server, x_s, x_t, first)
    broadcast, pending = server_prepare(server, x_s, x_t, second)
    ops = session_operands(second, x_s, x_t)
    fresh = {(k.label, k.slot): k for k in record_slots(second, server)}
    assert len(pending.candidates) == 3
    assert (broadcast, pending) == make_candidate(
        [fresh[k.label, k.slot] for k in pending.candidates], ops)


@pytest.mark.parametrize("spec", SPECS.values(), ids=["production64", "toy16"])
def test_one_call_over_every_slot_equals_per_slot_calls_and_formulas(spec):
    """``make_candidate`` over every live slot, in registry order, gives
    what one call per slot gives and what the paper's formulas give, slot
    for slot, and a pending session of the challenge and those slots; an
    empty sequence gives an empty broadcast and pending session."""
    lam = spec.output_len_bits
    server, _ = keygen(lam, 4, Prng(11, 0))
    stream = Prng(11, 1)
    for label in ("t001", "t003"):
        server.records[label].key_previous = prng_next(stream, lam)
    x_s, x_t = prng_next(Prng(11, 2), lam), prng_next(Prng(11, 3), lam)
    ops = session_operands(spec, x_s, x_t)
    slots = record_slots(spec, server)
    assert len(slots) == 6

    broadcast, pending = make_candidate(slots, ops)
    sigmas, deltas = broadcast
    expected = pending.expected
    assert (pending.ops, pending.candidates) == (ops, tuple(slots))
    assert [make_candidate((keys,), ops) for keys in slots] == [
        (BroadcastAuth((sigma,), (delta,)),
         PendingSession(ops, (keys,), (value,)))
        for sigma, delta, keys, value in zip(sigmas, deltas, slots, expected, strict=True)]
    reference = []
    for keys in slots:
        x = partial_key(spec, keys.counter, server.master, keys.key)
        k_prime, _ = split(keys.key)
        x_prime, _ = split(x)
        reference.append((auth_server_tag(spec, k_prime, x, x_s, x_t), xor(keys.key, x),
                          auth_tag_msg(spec, x_t, x_s, session_key(k_prime, x_prime))))
    assert [(BitString(sigma, lam), BitString(delta, lam), BitString(v, lam))
            for sigma, delta, v in zip(sigmas, deltas, expected, strict=True)] == reference
    assert make_candidate((), ops) == (BroadcastAuth((), ()), PendingSession(ops, (), ()))


def ref_scan(spec, key, x_s, x_t, broadcast):
    """The tag's flight 4 from the paper's formulas: ``(sigma', next key)``
    from the first candidate that authenticates the server, else None."""
    k_prime, k_dprime = split(key)
    for sigma, delta in zip(broadcast.sigmas, broadcast.deltas):
        x = xor(BitString(delta, len(key)), key)
        if auth_server_tag(spec, k_prime, x, x_s, x_t) == BitString(sigma, len(key)):
            x_prime, x_dprime = split(x)
            return (auth_tag_msg(spec, x_t, x_s, session_key(k_prime, x_prime)),
                    key_update(spec, k_dprime, x_dprime, x_s))
    return None


# (candidate index, field, bit): flip one bit of a broadcast candidate. A
# forged candidate (position, partial-key bits) is one more that verifies, so
# which of two verifying candidates the tag takes shows.
mangles = st.lists(st.tuples(st.integers(0, 15), st.sampled_from(("sigma", "delta")),
                             st.integers(0, 63)), max_size=3)


@settings(max_examples=100, deadline=None)
@given(lam=st.integers(4, 32).map(lambda h: 2 * h), toy=st.booleans(),
       n_tags=st.integers(1, 4), seed=st.integers(0, 1 << 16),
       warm=st.lists(st.booleans(), min_size=4, max_size=4), tag_idx=st.integers(0, 3),
       mangle=mangles, foreign=st.booleans(),
       forge=st.none() | st.tuples(st.integers(0, 16), st.integers(0, (1 << 64) - 1)))
def test_candidates_and_tag_scan_match_reference(lam, toy, n_tags, seed, warm, tag_idx, mangle,
                                                 foreign, forge):
    spec = HashSpec.toy(lam) if toy else HashSpec.production(lam)
    server, tags = keygen(lam, n_tags, Prng(seed, 0))
    for tag, honest in zip(tags, warm):  # an accepted record broadcasts its previous slot too
        if honest:
            challenge = server_begin(server)
            tag_respond_nonce(tag)
            broadcast, pending = server_prepare(server, challenge.x_s, tag.pending, spec)
            server_finalize(server, pending,
                            tag_verify_and_respond(tag, challenge.x_s, broadcast, spec))

    tag = tags[tag_idx % n_tags]
    x_s = server_begin(server).x_s
    x_t = tag_respond_nonce(tag).x_t
    ops = session_operands(spec, x_s, x_t)
    for keys in record_slots(spec, server):
        broadcast, pending = make_candidate((keys,), ops)
        assert (pending.ops, pending.candidates) == (ops, (keys,))
        ((sigma,), (delta,)), (expected,) = broadcast, pending.expected
        x = partial_key(spec, keys.counter, server.master, keys.key)
        k_prime, _ = split(keys.key)
        x_prime, _ = split(x)
        assert BitString(sigma, lam) == auth_server_tag(spec, k_prime, x, x_s, x_t)
        assert BitString(delta, lam) == xor(keys.key, x)
        assert BitString(expected, spec.output_len_bits) == auth_tag_msg(
            spec, x_t, x_s, session_key(k_prime, x_prime))

    broadcast = server_prepare(server, x_s, x_t, spec)[0]
    sigmas, deltas = list(broadcast.sigmas), list(broadcast.deltas)
    if foreign:  # one more session's broadcast, for the same challenge and nonce
        other, _ = keygen(lam, 1, Prng(seed + 1, 0))
        more_sigmas, more_deltas = server_prepare(other, x_s, x_t, spec)[0]
        sigmas += more_sigmas
        deltas += more_deltas
    for idx, field_name, bit in mangle:  # sigma and delta are both lam bits wide
        column = sigmas if field_name == "sigma" else deltas
        column[idx % len(column)] ^= 1 << (lam - 1 - bit % lam)

    key, counter = tag.key, tag.counter
    if forge is not None:  # a second candidate that verifies under the tag's key
        pos, bits = forge
        x = BitString(bits >> (64 - lam), lam)
        at = pos % (len(sigmas) + 1)
        sigmas.insert(at, auth_server_tag(spec, split(key)[0], x, x_s, x_t).value)
        deltas.insert(at, xor(x, key).value)
    broadcast = broadcast._replace(sigmas=tuple(sigmas), deltas=tuple(deltas))
    want = ref_scan(spec, key, x_s, x_t, broadcast)
    answer = tag_verify_and_respond(tag, x_s, broadcast, spec)
    if want is None:
        assert (tag.key, tag.counter) == (key, counter)
        assert len(answer.sigma_prime) == lam
    else:
        assert (answer.sigma_prime, tag.key, tag.counter) == (*want, counter + 1)
