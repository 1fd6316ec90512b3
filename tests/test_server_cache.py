"""The server's cached, lazy flight-3 path against a straight reference.

``server_prepare`` serves each slot's partial key, delta and key
concatenations from a per-slot cache and computes the next key only when
it is read. The reference below recomputes all four hashes of every
candidate on every session, as the paper's flight 3 states them. Over random
multi-tag fault schedules, with a database round trip and direct record
mutations mid-run, both must give the same broadcast, the same expected
``sigma'`` and next key for every candidate, and the same records after
every session.
"""

from dataclasses import dataclass

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kimap.bits import BitString, HashSpec, Prng, split, xor
from kimap.protocol import (
    TagAuth,
    auth_server_tag,
    auth_tag_msg,
    key_update,
    keygen,
    partial_key,
    server_begin,
    server_finalize,
    server_prepare,
    server_timeout,
    session_key,
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
    for rec in server.records.values():
        for slot, key in (("current", rec.key_current), ("previous", rec.key_previous)):
            if key is None:
                continue
            x = partial_key(spec, rec.counter, server.master, key)
            k_prime, k_dprime = split(key)
            x_prime, x_dprime = split(x)
            entries.append(RefCandidate(
                label=rec.label, slot=slot,
                sigma=auth_server_tag(spec, k_prime, x, x_s, x_t),
                delta=xor(key, x),
                expected=auth_tag_msg(spec, x_t, x_s, session_key(k_prime, x_prime)),
                next_key=key_update(spec, k_dprime, x_dprime, x_s)))
    server.prng.shuffle(entries)
    return entries


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


def record_states(server):
    return [(r.label, r.key_current, r.key_previous, r.counter, r.consecutive_failures)
            for r in server.records.values()]


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

        assert [(c.sigma, c.delta) for c in broadcast.candidates] == \
            [(e.sigma, e.delta) for e in entries]
        assert [(c.label, c.slot, c.expected_sigma_prime) for c in pending.candidates] == \
            [(e.label, e.slot, e.expected) for e in entries]
        assert [c.next_key for c in pending.candidates] == [e.next_key for e in entries]

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
        assert record_states(server) == record_states(ref)
