"""Channel simulator: interception, recovery, and transcript fidelity."""

import copy
import dataclasses
import gc
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kimap import channel
from kimap.bits import BitString, HashSpec, ParameterError, Prng
from kimap.channel import (
    PAYLOAD_TYPES,
    AdversaryAction,
    FaultSchedule,
    ScheduleError,
    World,
    check_payload_widths,
    recorded,
    run_session,
    transcript_line,
)
from kimap.protocol import (BroadcastAuth, Challenge, TagAuth, TagNonce, auth_server_tag,
                            keygen, offered_slots, slot_origin)

TOY16 = HashSpec.toy(16)
PROD64 = HashSpec.production(64)
PROD128 = HashSpec.production(128)


def fresh_world(n=1, lam=16, seed=100):
    return keygen(lam, n, Prng(seed, 0))


class TestHonestRuns:
    def test_single_session(self):
        server, tags = fresh_world()
        t = run_session(server, tags[0], [], TOY16, label="t001")
        assert t.accepted and t.tag_updated
        assert tags[0].key == server.records["t001"].key_current

    def test_hundred_sessions_two_tags_all_accepted(self):
        server, tags = fresh_world(n=2, seed=101)
        ts = World(server, tags, TOY16).run(FaultSchedule([]), 100)
        assert len(ts) == 100
        assert all(t.accepted for t in ts)

    def test_chained_synchronization(self):
        server, tags = fresh_world(n=2, seed=102)
        world = World(server, tags, TOY16)
        for seq in range(1, 51):
            idx = (seq - 1) % 2
            t = world.session(idx)
            assert t.accepted and t.session_seq == seq and t.label == list(server.records)[idx]
            assert tags[idx].key == server.records[t.label].key_current


class TestDrops:
    def test_drop_flight4_twice_desynchronizes(self):
        server, tags = fresh_world(seed=104)
        sched = FaultSchedule([AdversaryAction.drop(4, 1), AdversaryAction.drop(4, 2)])
        ts = World(server, tags, TOY16).run(sched, 4)
        assert server.records["t001"].desynchronized
        assert not ts[2].accepted and not ts[3].accepted  # stuck for good

    def test_drop_flight3_tag_never_updates(self):
        server, tags = fresh_world(seed=105)
        sched = FaultSchedule([AdversaryAction.drop(3, 1)])
        ts = World(server, tags, TOY16).run(sched, 2)
        assert not ts[0].tag_updated and not ts[0].accepted
        assert ts[0].broadcast is None
        assert ts[1].accepted  # next session matches the current slot
        assert ts[1].outcome_server.matched_slot == "current"

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    def test_other_tags_failure_keeps_recovery(self):
        # t001 ratchets while its flight 4 is lost; t002's lost flight 3 in
        # the next session must not take t001's recovery slot away
        server, tags = keygen(64, 3, Prng(1, 0))
        sched = FaultSchedule([AdversaryAction.drop(4, 1), AdversaryAction.drop(3, 2)])
        ts = World(server, tags, PROD64).run(sched, 4)
        assert ts[3].label == "t001" and ts[3].accepted

    def test_drop_flight1_aborts_silently(self):
        server, tags = fresh_world(seed=106)
        sched = FaultSchedule([AdversaryAction.drop(1, 1)])
        ts = World(server, tags, TOY16).run(sched, 2)
        assert ts[0].x_s is None and ts[0].outcome_server is None
        assert not ts[0].tag_updated
        assert ts[1].accepted

    def test_single_fault_recovery_for_any_flight(self):
        for flight in (1, 2, 3, 4):
            server, tags = fresh_world(seed=200 + flight)
            sched = FaultSchedule([AdversaryAction.drop(flight, 1)])
            ts = World(server, tags, TOY16).run(sched, 2)
            assert ts[1].accepted, f"flight {flight} drop did not recover in one session"
            assert tags[0].key == server.records["t001"].key_current

    def test_random_fault_interleavings_never_break_sync(self):
        # 300 sessions with random drops and tampers on random flights, at
        # most one faulty session in a row: every clean session must be
        # accepted, the record must never flag, and each clean session must
        # leave tag and server bitwise synchronized
        from kimap.bits import prng_next
        from kimap.protocol import TagAuth

        driver = Prng(314, 0)
        server, tags = fresh_world(seed=315)
        world = World(server, tags, TOY16)
        faulted_last = True  # session 1 runs clean
        for seq in range(1, 301):
            fault = None
            if not faulted_last and driver.randbelow(3) == 0:
                flight = 1 + driver.randbelow(4)
                if driver.randbelow(2) or flight != 4:
                    fault = AdversaryAction.drop(flight, seq)
                else:
                    bogus = TagAuth(prng_next(driver, 16))
                    fault = AdversaryAction.replace(4, bogus, seq)
            t = world.session(0, [fault] if fault else [])
            faulted_last = fault is not None
            rec = server.records["t001"]
            assert not rec.desynchronized
            if fault is None:
                assert t.accepted, f"clean session {seq} rejected"
                assert tags[0].key == rec.key_current


def _replacement(flight, bits):
    """A payload of the 64-bit wire's widths for ``flight``, from ``bits``."""
    if flight == 3:
        return BroadcastAuth(64, 64, (bits,), (bits,))
    return PAYLOAD_TYPES[flight](BitString(bits, 64))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")
@settings(max_examples=50, deadline=None)
@given(n_tags=st.integers(2, 4), seed=st.integers(0, 1 << 16),
       steps=st.lists(st.tuples(st.integers(0, 3),
                                st.sampled_from(("none", "drop", "replace", "replay")),
                                st.integers(1, 4), st.integers(0, (1 << 64) - 1)), max_size=12))
@example(n_tags=3, seed=1, steps=[(0, "drop", 4, 0), (1, "drop", 3, 0)])
def test_a_failed_session_loses_no_other_tag(n_tags, seed, steps):
    """Under any schedule of drops, replacements and replays, a session of
    one tag that fails takes no other tag from an offered slot to "lost"
    (ROADMAP item 1). A step is a tag, an action on one flight, and bits
    that pick a replacement or a replay's source. The example is ROADMAP's
    counterexample: t001 ratchets while its flight 4 is lost, and t002's
    lost flight 3 then re-parks t001's record past t001's key."""
    world = World(*keygen(64, n_tags, Prng(seed, 0)), PROD64)
    for idx, kind, flight, bits in steps:
        seq = world.next_seq
        sources = sorted(source for source in world.recording
                         if recorded(world.recording, source, flight) is not None)
        if kind == "drop":
            actions = [AdversaryAction.drop(flight, seq)]
        elif kind == "replace":
            actions = [AdversaryAction.replace(flight, _replacement(flight, bits), seq)]
        elif kind == "replay" and sources:
            actions = [AdversaryAction.replay(flight, sources[bits % len(sources)], seq)]
        else:
            actions = []
        before = world.whereabouts()
        t = world.session(idx % n_tags, actions)
        if not t.accepted:
            after = world.whereabouts()
            assert [label for label, place in before.items() if label != t.label
                    and place != "lost" and after[label] == "lost"] == []


class TestTampering:
    def test_delta_bit_flip_rejected_keys_unchanged(self):
        # the replacement payload depends on the genuine broadcast, so drive
        # the flights by hand and tamper in the middle
        from kimap.protocol import (
            server_begin, server_finalize, server_prepare, tag_respond_nonce,
            tag_verify_and_respond)
        server, tags = fresh_world(seed=107)
        k_tag = tags[0].key
        k_srv = server.records["t001"].key_current
        ch = server_begin(server)
        nonce = tag_respond_nonce(tags[0])
        bc, pending = server_prepare(server, ch.x_s, nonce.x_t, TOY16)
        mangled = bc._replace(deltas=(bc.deltas[0] ^ 1 << 12,))
        ta = tag_verify_and_respond(tags[0], ch.x_s, mangled, TOY16)
        result = server_finalize(server, pending, ta)
        assert not result.accepted
        assert tags[0].key == k_tag
        assert server.records["t001"].key_current == k_srv

    def test_replayed_broadcast_takes_failure_path(self):
        server, tags = fresh_world(seed=108)
        sched = FaultSchedule([AdversaryAction.replay(3, source_session=1, session_seq=2)])
        ts = World(server, tags, TOY16).run(sched, 3)
        assert ts[0].accepted
        assert not ts[1].tag_updated and not ts[1].accepted  # stale nonce binding
        assert ts[2].accepted  # recovery

    def test_replace_challenge_desyncs_that_session_only(self):
        server, tags = fresh_world(seed=109)
        bogus = Challenge(BitString(0x1234, 16))
        sched = FaultSchedule([AdversaryAction.replace(1, bogus, 1)])
        ts = World(server, tags, TOY16).run(sched, 2)
        # tag verified against the forged challenge, server signed its own:
        # the tag must reject and hold its key
        assert not ts[0].tag_updated and not ts[0].accepted
        assert ts[1].accepted


class TestTranscriptFidelity:
    def test_delivered_fields_match_wire(self):
        server, tags = fresh_world(seed=110)
        t = run_session(server, tags[0], [], TOY16, label="t001")
        assert t.x_s is not None and t.x_t is not None
        assert t.broadcast is not None and t.sigma_prime is not None
        assert len(t.x_s.x_s) == 16 and len(t.sigma_prime.sigma_prime) == 16

    @pytest.mark.parametrize("lam,spec", [(16, TOY16), (64, PROD64)])
    def test_every_wire_field_is_lambda_bits(self, lam, spec):
        server, tags = keygen(lam, 2, Prng(120, 0))
        for t in World(server, tags, spec).run(FaultSchedule([]), 10):
            assert len(t.x_s.x_s) == lam
            assert len(t.x_t.x_t) == lam
            assert t.broadcast.sigma_bits == t.broadcast.delta_bits == lam
            assert len(t.sigma_prime.sigma_prime) == lam

    def test_dropped_fields_absent(self):
        server, tags = fresh_world(seed=111)
        t = run_session(server, tags[0], [AdversaryAction.drop(2, 1)], TOY16)
        assert t.x_s is not None and t.x_t is None
        assert t.broadcast is None and t.sigma_prime is None

    def test_failure_response_shape_matches_success(self):
        server, tags = fresh_world(seed=112)
        ok = run_session(server, tags[0], [], TOY16)
        zero = BroadcastAuth(16, 16, (0,), (0,))
        bad = run_session(server, tags[0], [AdversaryAction.replace(3, zero, 1)], TOY16)
        assert ok.tag_updated and not bad.tag_updated
        assert len(ok.sigma_prime.sigma_prime) == len(bad.sigma_prime.sigma_prime)


class TestScheduleValidation:
    def test_duplicate_slot_rejected(self):
        refused("duplicate-slot")

    def test_add_rejects_a_taken_slot_and_keeps_the_schedule(self):
        refused("add-a-taken-slot")

    def test_for_session_keeps_add_order_within_a_session(self):
        """Actions added out of session order come back, for each session,
        in the order they were added; a session with none gets []."""
        bogus = TagAuth(BitString(0, 16))
        added = [AdversaryAction.drop(4, 3), AdversaryAction.drop(2, 1),
                 AdversaryAction.replay(3, 1, 2), AdversaryAction.replace(4, bogus, 1),
                 AdversaryAction.drop(1, 3), AdversaryAction.drop(3, 1)]
        sched = FaultSchedule(added[:2])
        for a in added[2:]:
            sched.add(a)
        assert sched.actions == added
        assert sched.for_session(1) == [added[1], added[3], added[5]]
        assert sched.for_session(2) == [added[2]]
        assert sched.for_session(3) == [added[0], added[4]]
        assert sched.for_session(4) == []

    def test_action_without_session_rejected(self):
        """Every action names its session: one without cannot be built, so
        no action can match every session and hide a numbered action on
        the same flight from the duplicate-slot check."""
        server, tags = fresh_world(n=2, seed=114)
        bogus = TagAuth(BitString(0, 16))
        with pytest.raises(TypeError):
            AdversaryAction.drop(4)
        sched = FaultSchedule([AdversaryAction.replace(4, bogus, 2)])
        assert sched.for_session(1) == [] and sched.for_session(2) == sched.actions
        t = World(server, tags, TOY16).run(sched, 2)[1]
        assert t.sigma_prime == bogus and not t.accepted

    def test_run_session_applies_actions_of_its_own_session(self):
        server, tags = fresh_world(seed=116)
        t = run_session(server, tags[0], [AdversaryAction.drop(4, 3)], TOY16, session_seq=3)
        assert t.tag_updated and t.sigma_prime is None and not t.accepted

    @pytest.mark.parametrize("case", [
        "other-session", "other-session-second", "same-flight", "same-flight-numbered",
        "unrecorded-source", "unrecorded-source-after-abort", "unrecorded-source-flight-2",
        "narrow-challenge", "narrow-nonce", "narrow-delta"])
    def test_run_session_rejects_actions_that_do_not_fit(self, case):
        """An action numbered for another session, a second action on one
        flight, a replacement narrower than the wire, or a replay of a flight
        its earlier session never emitted is a malformed schedule: it raises
        before any flight runs."""
        refused(f"session-{case}")

    @pytest.mark.parametrize("case", ["later", "later-far", "own-session", "own-later-session",
                                      "zero", "none"],
                             ids=["later-source", "later-source-far", "own-session",
                                  "own-later-session", "source-zero", "no-source"])
    def test_replay_source_must_be_an_earlier_session(self, case):
        refused(f"replay-source-{case}")

    def test_session_below_one_rejected(self):
        refused("session-zero")

    def test_flight_outside_one_to_four_rejected(self):
        refused("flight-9")

    def test_replay_unknown_source(self):
        refused("run-replaying-what-the-run-loses")

    def test_payload_widths_are_the_key_and_hash_widths(self):
        """x_s, x_t and delta have the key's width, sigma and sigma' the hash
        output's, told apart here by a 16-bit key and an 8-bit hash."""
        key, out = BitString(0, 16), BitString(0, 8)
        for payload in (Challenge(key), TagNonce(key), TagAuth(out),
                        BroadcastAuth(8, 16, (0, 0), (0, 0))):
            check_payload_widths(payload, 16, 8)
        for name in ("x_s", "x_t", "sigma_prime", "sigma", "delta"):
            refused(f"payload-{name}")

    def test_replace_payload_shape_checked(self):
        refused("replace-with-another-flight-payload")

    def test_bad_kind_rejected(self):
        refused("unknown-kind")


def _two_aborted():
    """A world whose session 1 lost flight 2 and session 2 flight 1, so
    neither emitted flight 3, and session 2 emitted no flight 2."""
    world = World(*fresh_world(seed=117), TOY16)
    world.session(0, [AdversaryAction.drop(2, 1)])
    world.session(0, [AdversaryAction.drop(1, 2)])
    return world


def _after_one_session():
    world = World(*fresh_world(seed=122), TOY16)
    world.session(0)
    return world


def _schedule_of_two():
    sched = FaultSchedule([AdversaryAction.drop(4, 1)])
    sched.add(AdversaryAction.drop(4, 2))
    return sched


def _session_3(*actions):
    """Session 3 of :func:`_two_aborted`, under ``actions``."""
    return _two_aborted, lambda world: world.session(0, actions)


B8, B16 = BitString(0, 8), BitString(0, 16)

# Every call the channel module refuses: (a function that builds the world
# the call may change, or None; the call, given that world, which it must
# leave as it was; its error class and its message). An action that breaks a
# rule of its own cannot be built; one that does not fit its session is
# refused before any flight runs, and a run is refused whole before its first
# session. The one test that names a row makes its call, through
# :func:`refused`.
REFUSED_CALLS = {
    "unknown-kind": (None, lambda _: AdversaryAction("mangle", 1, 1), ScheduleError,
                     "unknown action kind 'mangle'"),
    "flight-9": (None, lambda _: AdversaryAction.drop(9, 1), ScheduleError,
                 "flight must be 1-4, got 9"),
    "session-zero": (None, lambda _: AdversaryAction.drop(4, 0), ScheduleError,
                     "session must be >= 1, got 0"),
    "replace-with-another-flight-payload": (
        None, lambda _: AdversaryAction.replace(3, Challenge(B16), 1), ScheduleError,
        "replace payload for flight 3 must be BroadcastAuth"),
    # a replay names the session whose flight it delivers; a session that
    # has not run yet, or the replaying session itself, emitted nothing
    **{f"replay-source-{name}": (
        None, lambda _, source=source, seq=seq: AdversaryAction("replay", 3, seq,
                                                                source_session=source),
        ScheduleError, f"replay source {source} is not before session {seq}")
       for name, source, seq in [("later", 9, 1), ("later-far", 7, 1), ("own-session", 1, 1),
                                 ("own-later-session", 3, 3), ("zero", 0, 2), ("none", None, 2)]},
    "duplicate-slot": (None, lambda _: FaultSchedule([AdversaryAction.drop(4, 1)] * 2),
                       ScheduleError, "duplicate action for session 1 flight 4"),
    "add-a-taken-slot": (_schedule_of_two, lambda sched: sched.add(AdversaryAction.drop(4, 2)),
                         ScheduleError, "duplicate action for session 2 flight 4"),
    **{f"payload-{name}": (None, lambda _, payload=payload: check_payload_widths(payload, 16, 8),
                           ScheduleError, message)
       for name, payload, message in [
           ("x_s", Challenge(B8), "replacement x_s 00:8 is 8 bits, not 16"),
           ("x_t", TagNonce(B8), "replacement x_t 00:8 is 8 bits, not 16"),
           ("sigma_prime", TagAuth(B16), "replacement sigma_prime 0000:16 is 16 bits, not 8"),
           ("sigma", BroadcastAuth(16, 16, (0,), (0,)),
            "replacement sigma 0000:16 is 16 bits, not 8"),
           ("delta", BroadcastAuth(8, 8, (0, 0), (0, 0)),
            "replacement delta 00:8 is 8 bits, not 16")]},
    "session-other-session": (*_session_3(AdversaryAction.drop(4, 7)), ScheduleError,
                                    "action on flight 4 is for session 7, not session 3"),
    "session-other-session-second": (
        *_session_3(AdversaryAction.drop(2, 3), AdversaryAction.drop(4, 7)), ScheduleError,
        "action on flight 4 is for session 7, not session 3"),
    "session-same-flight": (
        *_session_3(AdversaryAction.drop(4, 3), AdversaryAction.replace(4, TagAuth(B16), 3)),
        ScheduleError, "two actions on flight 4 of session 3"),
    "session-same-flight-numbered": (
        *_session_3(AdversaryAction.drop(3, 3), AdversaryAction.replay(3, 1, 3)), ScheduleError,
        "two actions on flight 3 of session 3"),
    "session-unrecorded-source": (*_session_3(AdversaryAction.replay(3, 1, 3)), ScheduleError,
                                  "replay source session 1 flight 3 was never recorded"),
    "session-unrecorded-source-after-abort": (
        *_session_3(AdversaryAction.drop(1, 3), AdversaryAction.replay(3, 2, 3)), ScheduleError,
        "replay source session 2 flight 3 was never recorded"),
    "session-unrecorded-source-flight-2": (
        *_session_3(AdversaryAction.replay(2, 2, 3)), ScheduleError,
        "replay source session 2 flight 2 was never recorded"),
    "session-narrow-challenge": (*_session_3(AdversaryAction.replace(1, Challenge(B8), 3)),
                                 ScheduleError, "replacement x_s 00:8 is 8 bits, not 16"),
    "session-narrow-nonce": (*_session_3(AdversaryAction.replace(2, TagNonce(B8), 3)),
                             ScheduleError, "replacement x_t 00:8 is 8 bits, not 16"),
    "session-narrow-delta": (
        *_session_3(AdversaryAction.replace(3, BroadcastAuth(16, 8, (0,), (0,)), 3)),
        ScheduleError, "replacement delta 00:8 is 8 bits, not 16"),
    "session-numbered-behind-the-world": (
        _after_one_session, lambda world: world.session(0, [AdversaryAction.drop(4, 1)]),
        ScheduleError, "action on flight 4 is for session 1, not session 2"),
    "run-of-no-sessions": (_after_one_session, lambda world: world.run(FaultSchedule([]), 0),
                           ParameterError, "sessions must be >= 1, got 0"),
    # session 1 loses flight 2, so session 2 cannot replay its flight 3
    "run-replaying-what-the-run-loses": (
        lambda: World(*fresh_world(seed=113), TOY16),
        lambda world: world.run(FaultSchedule([AdversaryAction.drop(2, 1),
                                               AdversaryAction.replay(3, 1, 2)]), 3),
        ScheduleError, "replay source session 1 flight 3 was never recorded"),
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


@settings(max_examples=200, deadline=None)
@given(seq=st.integers(2, 5), aborts=st.lists(st.sampled_from([None, 1, 2, 3]), min_size=4,
                                             max_size=4), data=st.data())
def test_session_runs_or_changes_nothing(seq, aborts, data):
    """Up to three random actions against a world in which some earlier
    sessions lost flight 1, 2 or 3. A replay can be built exactly when its
    source is an earlier session. The session either runs, or raises
    ScheduleError before any state changes, its number included. It raises
    exactly when an action names another session, two share a flight, a
    replacement is 8 bits wide on a 16-bit wire, or a replay's source flight
    was never recorded."""
    server, tags = fresh_world(n=2, seed=118)
    world = World(server, tags, TOY16)
    for earlier in range(1, seq):
        lost = aborts[earlier - 1]
        world.session(earlier % 2, [AdversaryAction.drop(lost, earlier)] if lost else [])
    actions, narrow = [], False
    for _ in range(data.draw(st.integers(0, 3))):
        kind = data.draw(st.sampled_from(["drop", "replace", "replay"]))
        flight, session = data.draw(st.integers(1, 4)), data.draw(st.integers(seq - 1, seq + 1))
        if kind == "drop":
            actions.append(AdversaryAction.drop(flight, session))
        elif kind == "replay":
            source = data.draw(st.integers(1, seq + 1))
            try:
                actions.append(AdversaryAction.replay(flight, source, session))
            except ScheduleError:
                assert source >= session
            else:
                assert source < session
        else:
            width = data.draw(st.sampled_from([16, 8]))
            narrow |= width != 16
            value = data.draw(st.integers(0, (1 << width) - 1))
            payload = (BroadcastAuth(width, width, (value,), (value,)) if flight == 3
                       else PAYLOAD_TYPES[flight](BitString(value, width)))
            actions.append(AdversaryAction.replace(flight, payload, session))
    fits = (all(a.session_seq == seq for a in actions) and not narrow
            and len({a.flight for a in actions}) == len(actions)
            and all(recorded(world.recording, a.source_session, a.flight) is not None
                    for a in actions if a.kind == "replay"))
    before = copy.deepcopy(world)
    try:
        world.session(seq % 2, actions)
    except ScheduleError:
        assert not fits
        assert world == before
    else:
        assert fits and world.next_seq == seq + 1


@settings(max_examples=200, deadline=None)
@given(before=st.integers(0, 3), n=st.integers(1, 4), data=st.data())
def test_run_is_whole_or_changes_nothing(before, n, data):
    """A run of n sessions after some earlier ones, under random drops,
    replays of any earlier session and replacements 16 or 8 bits wide. It
    returns n transcripts, or it raises ScheduleError and leaves the
    records, the tags, the recording and the next session number as they
    were. It is refused exactly when the same sessions, run one at a time
    on an identical world, would refuse one of them."""
    world = World(*fresh_world(n=2, seed=124), TOY16)
    for seq in range(1, before + 1):
        lost = data.draw(st.sampled_from([None, 1, 2, 3]))
        world.session((seq - 1) % 2, [AdversaryAction.drop(lost, seq)] if lost else [])
    schedule, first = FaultSchedule(), before + 1
    for seq in range(first, first + n):
        for flight in data.draw(st.sets(st.integers(1, 4), max_size=2)):
            kind = data.draw(st.sampled_from(["drop", "replace"] + ["replay"] * (seq > 1)))
            if kind == "drop":
                schedule.add(AdversaryAction.drop(flight, seq))
            elif kind == "replay":
                source = data.draw(st.integers(1, seq - 1))
                schedule.add(AdversaryAction.replay(flight, source, seq))
            else:
                width = data.draw(st.sampled_from([16, 8]))
                payload = (BroadcastAuth(width, width, (0,), (0,)) if flight == 3
                           else PAYLOAD_TYPES[flight](BitString(0, width)))
                schedule.add(AdversaryAction.replace(flight, payload, seq))
    twin = copy.deepcopy(world)
    try:
        transcripts = world.run(schedule, n)
    except ScheduleError:
        assert world == twin
        with pytest.raises(ScheduleError):
            for _ in range(n):
                twin.session((twin.next_seq - 1) % 2, schedule.for_session(twin.next_seq))
    else:
        assert len(transcripts) == n and world.next_seq == first + n
        stepwise = [twin.session((twin.next_seq - 1) % 2, schedule.for_session(twin.next_seq))
                    for _ in range(n)]
        assert [transcript_line(t) for t in stepwise] == [transcript_line(t) for t in transcripts]


class TestWorld:
    def test_sessions_are_numbered_in_the_order_they_run(self):
        server, tags = fresh_world(n=2, seed=121)
        world = World(server, tags, TOY16)
        first, second = world.session(1), world.session(0)
        assert (first.session_seq, first.label) == (1, "t002")
        assert (second.session_seq, second.label) == (2, "t001")
        assert world.next_seq == 3 and first.accepted and second.accepted

    def test_refused_session_changes_nothing(self):
        """An action for another session, or a run of no sessions, is
        refused: the number, the recording, the server and the tag stay."""
        refused("session-numbered-behind-the-world")
        refused("run-of-no-sessions")

    def test_deep_copy_shares_bit_strings_and_runs_the_same_session(self):
        """Bit strings, hash specs and cached slot keys are immutable, so a
        deep copy of a world shares them rather than rebuilding them. The
        copy runs the next session as the original would, and leaves the
        original's records and tag keys as they were."""
        world = World(*fresh_world(n=2, seed=126), TOY16)
        for seq in range(1, 5):
            world.session(seq % 2, [AdversaryAction.drop(4, seq)] if seq == 3 else [])
        twin = copy.deepcopy(world)
        assert twin.server is not world.server and twin.spec is world.spec
        assert twin.server.master is world.server.master
        shared = []
        for rec, twin_rec in zip(world.server.records.values(), twin.server.records.values()):
            assert twin_rec is not rec
            shared += [getattr(twin_rec, name) is value for name, value in vars(rec).items()
                       if isinstance(value, BitString)]
        assert all(shared) and len(shared) > 2  # every key, a parked one among them
        for tag, twin_tag in zip(world.tags, twin.tags):
            assert twin_tag is not tag and twin_tag.key is tag.key
        ((current, previous),) = world.server.slot_cache.values()
        ((twin_current, twin_previous),) = twin.server.slot_cache.values()
        assert [twin_current[label] is keys for label, keys in current.items()] == [True] * 2
        assert [twin_previous[label] is keys for label, keys in previous.items()] == [True] * 2

        before = copy.deepcopy(world)
        copied = transcript_line(twin.session(0))
        assert world == before
        assert transcript_line(world.session(0)) == copied
        assert world == twin


@st.composite
def schedules(draw, n_sessions):
    """At most one drop or replay per session. A replay names an earlier
    session that emitted its flight: one that lost no earlier flight."""
    schedule, lost = FaultSchedule(), {}
    for seq in range(1, n_sessions + 1):
        kind, flight = draw(st.sampled_from([None, "drop", "replay"])), draw(st.integers(1, 4))
        if kind == "drop":
            schedule.add(AdversaryAction.drop(flight, seq))
            lost[seq] = flight
        elif kind == "replay" and seq > 1:
            source = draw(st.integers(1, seq - 1))
            if lost.get(source, 4) >= flight:
                schedule.add(AdversaryAction.replay(flight, source, seq))
    return schedule


@settings(max_examples=100, deadline=None)
@given(a=st.integers(1, 6), b=st.integers(1, 6), data=st.data())
def test_world_run_in_two_parts_equals_one_run(a, b, data):
    """``run(s, a)`` then ``run(s, b)`` is ``run(s, a + b)`` on an identical
    fresh world: the same transcripts, records and next session number."""
    schedule = data.draw(schedules(a + b))
    whole, split = (World(*fresh_world(n=2, seed=123), TOY16) for _ in range(2))
    one = whole.run(schedule, a + b)
    two = split.run(schedule, a) + split.run(schedule, b)
    assert [transcript_line(t) for t in two] == [transcript_line(t) for t in one]
    assert list(split.server.records.values()) == list(whole.server.records.values())
    assert split.next_seq == whole.next_seq == a + b + 1


class TestRecording:
    def test_recording_holds_no_tracked_object(self):
        """The recording keeps each session as one bytes, which the garbage
        collector does not track: a recording of any length adds nothing to
        a full collection."""
        world = World(*keygen(64, 2, Prng(125, 0)), PROD64)
        world.run(FaultSchedule([]), 4)
        assert ([(s, f) for s in range(1, 6) for f in range(1, 5)
                 if recorded(world.recording, s, f) is not None]
                == [(s, f) for s in range(1, 5) for f in range(1, 5)])
        gc.collect()
        assert [key for key, value in world.recording.items() if gc.is_tracked(value)] == []

    def test_recording_of_a_fleet_stays_small(self):
        """100 sessions of 16 tags at 64 bits, 32 candidates a broadcast once
        every record has been accepted, record about 560 wire bytes a
        session. Counting the recording, its keys and its values once each
        (``sys.getsizeof``), the recording stays within 700 bytes a session,
        where one entry a flight under a (session, flight) key took 1,271.
        Nothing in it is tracked by the garbage collector."""
        world = World(*keygen(64, 16, Prng(130, 0)), PROD64)
        world.run(FaultSchedule([]), 100)
        rec = world.recording
        gc.collect()
        assert [key for key, value in rec.items()
                if gc.is_tracked(key) or gc.is_tracked(value)] == [] and not gc.is_tracked(rec)
        size = sys.getsizeof(rec) + sum(sys.getsizeof(k) + sys.getsizeof(v) for k, v in rec.items())
        assert size <= 700 * 100

    def test_a_session_re_run_replaces_its_value(self):
        """Session 1 run twice under one number with one recording keeps the
        second run's flights 1-4 and nothing of the first: session 2's
        replays deliver what the second run emitted."""
        server, tags = fresh_world(seed=119)
        recording = {}
        run_session(server, tags[0], [], TOY16, session_seq=1, recording=recording)
        again = run_session(server, tags[0], [], TOY16, session_seq=1, recording=recording)
        assert [f for f in range(1, 5) if recorded(recording, 1, f) is not None] == [1, 2, 3, 4]
        for flight, name in enumerate(("x_s", "x_t", "broadcast", "sigma_prime"), 1):
            t = run_session(server, tags[0], [AdversaryAction.replay(flight, 1, 2)], TOY16,
                            session_seq=2, recording=recording)
            assert getattr(t, name) == getattr(again, name)

    @pytest.mark.parametrize("last", [1, 2, 3, 4])
    def test_a_session_records_the_flights_it_emitted(self, last):
        """A session that drops flight ``last`` emitted flights 1 to
        ``last``. A replay of each of those runs; a replay of a later flight
        is refused before flight 1, with nothing changed."""
        server, tags = fresh_world(seed=131)
        recording = {}
        drop = [AdversaryAction.drop(last, 1)] if last < 4 else []
        run_session(server, tags[0], drop, TOY16, session_seq=1, recording=recording)
        assert ([f for f in range(1, 5) if recorded(recording, 1, f) is not None]
                == list(range(1, last + 1)))
        for flight in range(1, 5):
            replay = [AdversaryAction.replay(flight, 1, 2)]
            if flight <= last:
                run_session(server, tags[0], replay, TOY16, session_seq=2, recording=recording)
                continue
            before = copy.deepcopy((server, tags, recording))
            with pytest.raises(ScheduleError) as err:
                run_session(server, tags[0], replay, TOY16, session_seq=2, recording=recording)
            assert str(err.value) == f"replay source session 1 flight {flight} was never recorded"
            assert (server, tags, recording) == before

    @pytest.mark.parametrize("lam,spec", [(64, PROD64), (16, TOY16), (128, PROD128)],
                             ids=["production", "toy", "production128"])
    @pytest.mark.parametrize("flight", [1, 2, 3, 4])
    def test_replay_delivers_what_the_source_emitted(self, flight, lam, spec):
        """Session 2 replays session 1's flight: its transcript field equals
        the payload session 1 emitted, widths included, and prints the same
        bytes."""
        world = World(*keygen(lam, 2, Prng(126, 0)), spec)
        first, second = world.run(FaultSchedule([AdversaryAction.replay(flight, 1, 2)]), 2)
        name = ("x_s", "x_t", "broadcast", "sigma_prime")[flight - 1]
        emitted, replayed = getattr(first, name), getattr(second, name)
        assert replayed == emitted and type(replayed) is PAYLOAD_TYPES[flight]
        assert (transcript_line(dataclasses.replace(first, **{name: replayed}))
                == transcript_line(first))

    def test_replayed_empty_broadcast_is_empty(self):
        """A server whose every record is exhausted broadcasts no candidate;
        a replay of that broadcast delivers an empty one too."""
        server, tags = keygen(64, 2, Prng(128, 0))
        for rec, tag in zip(server.records.values(), tags):
            rec.counter = tag.counter = 2**32 - 1
        world = World(server, tags, PROD64)
        first, second = world.run(FaultSchedule([AdversaryAction.replay(3, 1, 2)]), 2)
        assert first.broadcast == second.broadcast == BroadcastAuth(0, 0, (), ())
        assert not first.accepted and not second.accepted

    @pytest.mark.parametrize("lam,spec", [(64, PROD64), (16, TOY16), (128, PROD128)],
                             ids=["production", "toy", "production128"])
    def test_broadcast_is_recorded_as_its_wire_bytes(self, lam, spec):
        """A session is recorded as one bytes. Its broadcast of n candidates
        is a 12-byte header and n times the whole bytes of one candidate's
        sigma and delta; flights 1, 2 and 4 are a 4-byte header each and
        their whole bytes."""
        world = World(*keygen(lam, 3, Prng(129, 0)), spec)
        transcripts = world.run(FaultSchedule([]), 6)
        key, out = -(-lam // 8), -(-spec.output_len_bits // 8)
        for t in transcripts:
            n, wire_bits = len(t.broadcast.sigmas), spec.output_len_bits + lam
            broadcast = 12 + n * -(-wire_bits // 8)
            assert len(recorded(world.recording, t.session_seq, 3)) == broadcast
            value = world.recording[t.session_seq]
            assert type(value) is bytes and len(value) == 3 * 4 + 2 * key + out + broadcast
        assert len(transcripts[-1].broadcast.sigmas) == 6  # both slots of every record

    def test_no_recording_records_nothing(self, monkeypatch):
        """Without a recording a session packs no flight, and a replay, which
        has no source to read, is refused before flight 1 with nothing
        changed."""
        server, tags = fresh_world(seed=127)
        packed = []
        monkeypatch.setattr(channel, "_pack", lambda *args: packed.append(args))
        t = run_session(server, tags[0], [], TOY16, session_seq=1, recording=None)
        assert t.accepted and packed == []
        before = copy.deepcopy((server, tags))
        with pytest.raises(ScheduleError) as err:
            run_session(server, tags[0], [AdversaryAction.replay(3, 1, 2)], TOY16, session_seq=2)
        assert str(err.value) == "replay source session 1 flight 3 was never recorded"
        assert (server, tags) == before


@st.composite
def sessions(draw):
    """The four payloads of one session and how many of them it emitted.
    Its key width (x_s, x_t and every delta) and hash width (every sigma)
    are drawn from 1 to 300 bits, odd widths included; the broadcast holds
    0-6 candidates, and sigma' is of the hash width (a match) or of the key
    width (no match)."""
    key_bits, hash_bits = draw(st.integers(1, 300)), draw(st.integers(1, 300))

    def bits(width):
        return BitString(draw(st.integers(0, (1 << width) - 1)), width)

    def column(width, n):
        return tuple(bits(width).value for _ in range(n))

    n = draw(st.integers(0, 6))
    payloads = [Challenge(bits(key_bits)), TagNonce(bits(key_bits)),
                BroadcastAuth(hash_bits, key_bits, column(hash_bits, n), column(key_bits, n))
                if n else BroadcastAuth(0, 0, (), ()),
                TagAuth(bits(draw(st.sampled_from([hash_bits, key_bits]))))]
    return payloads, draw(st.integers(1, 4))


@settings(max_examples=200, deadline=None)
@given(session=sessions())
@example(session=([Challenge(BitString(1, 3)), TagNonce(BitString(5, 3)),
                   BroadcastAuth(0, 0, (), ()),
                   TagAuth(BitString(2, 3))], 4))
@example(session=([Challenge(BitString(5, 3)), TagNonce(BitString(0, 3)),
                   BroadcastAuth(1, 3, (1, 1), (5, 5)),
                   TagAuth(BitString(1, 1))], 4))
def test_a_recorded_session_rebuilds_equal(session):
    """Each flight a session emitted, recorded as the channel records it,
    rebuilds a payload equal to the one emitted, widths included; a flight
    it never emitted is not recorded. A rebuilt broadcast's transcript text
    is the text of each candidate's two bit strings."""
    payloads, emitted = session
    recording = {}
    for flight, payload in enumerate(payloads[:emitted], 1):
        assert channel._deliver(flight, payload, {}, 7, recording) is payload
    for flight, payload in enumerate(payloads, 1):
        packed = recorded(recording, 7, flight)
        if flight > emitted:
            assert packed is None
            continue
        rebuilt = channel._rebuild(flight, packed)
        assert rebuilt == payload and type(rebuilt) is PAYLOAD_TYPES[flight]
    if emitted >= 3:
        bc = payloads[2]
        text = ",".join(f"{BitString(sigma, bc.sigma_bits).to_text()}/"
                        f"{BitString(delta, bc.delta_bits).to_text()}"
                        for sigma, delta in zip(bc.sigmas, bc.deltas))
        t = channel.SessionTranscript(session_seq=7, label="t001",
                                      broadcast=channel._rebuild(3, recorded(recording, 7, 3)))
        assert f" broadcast={text} " in transcript_line(t)


class TestDesyncPrice:
    """ROADMAP item 14: what an adversary pays, in interceptions, to lose
    tags on today's design, where every failed session re-parks every
    record's previous slot."""

    @staticmethod
    def honest_round(world):
        return [world.session(idx).accepted for idx in range(len(world.tags))]

    @pytest.mark.parametrize("n", [4, 16])
    def test_n_plus_one_interceptions_lose_every_tag(self, n):
        server, tags = keygen(64, n, Prng(7, 0))
        world = World(server, tags, PROD64)
        assert all(self.honest_round(world))
        for idx in range(n):  # each tag ratchets while its proof is lost
            assert not world.session(idx, [AdversaryAction.drop(4, world.next_seq)]).accepted
        # one more failure re-parks every record past its tag's key
        assert not world.session(0, [AdversaryAction.drop(3, world.next_seq)]).accepted
        assert all(rec.desynchronized for rec in server.records.values())
        assert set(world.whereabouts().values()) == {"lost"}
        assert self.honest_round(world) == [False] * n

    @pytest.mark.parametrize("n", [4, 16])
    def test_n_interceptions_lose_every_tag(self, n):
        """The last failure of the N + 1 above costs nothing: tag 0 is lost
        once every tag's proof was dropped, and its next honest session is
        rejected, which re-parks every record past its tag's key."""
        server, tags = keygen(64, n, Prng(7, 0))
        world = World(server, tags, PROD64)
        assert all(self.honest_round(world))
        for idx in range(n):  # each tag ratchets while its proof is lost
            assert not world.session(idx, [AdversaryAction.drop(4, world.next_seq)]).accepted
        assert not world.session(0).accepted
        assert all(rec.desynchronized for rec in server.records.values())
        assert set(world.whereabouts().values()) == {"lost"}
        assert self.honest_round(world) == [False] * n

    def test_two_interceptions_lose_one_chosen_tag(self):
        server, tags = keygen(64, 4, Prng(7, 0))
        world = World(server, tags, PROD64)
        assert all(self.honest_round(world))
        for _ in range(2):
            assert not world.session(1, [AdversaryAction.drop(4, world.next_seq)]).accepted
        assert self.honest_round(world) == [True, False, True, True]


class TestAcceptLeftSlot:
    """The oracle for ROADMAP item 15, which would clear the previous slot on
    an accept: under a fault-mix of interceptions, no accept goes through a
    previous slot that an accept left behind (the old current key, or the
    matched previous key it keeps), while accepts through a slot a failed
    session's hedge parked do happen and must keep working. Over seeds 1-3
    these are 7 on production(64) and 4 on toy(16); the fleet is soon lost
    (ROADMAP item 14), so the count stays small."""

    KINDS = ("drop-2", "drop-3", "drop-4", "replay-3", "replace-4")

    @classmethod
    def episode(cls, spec, lam, seed, n_tags=8, n_sessions=1000):
        """Accepts by what put the matched slot's key there (``slot_origin``
        of the slot, as the session's broadcast offered it); and each
        session accepted as another tag's record, as ``(session, tag, the
        label accepted, the matched slot's origin, where World.whereabouts
        then puts the tag)``."""
        world = World(*keygen(lam, n_tags, Prng(seed, 0)), spec)
        server = world.server
        rng = random.Random(seed)
        sources = []  # sessions that emitted a flight 3
        through = {"current": 0, "accept-left": 0, "parked": 0}
        crossed = []
        for seq in range(1, n_sessions + 1):
            kind = rng.choice(cls.KINDS) if rng.random() < 0.1 else None
            if kind in ("drop-2", "drop-3", "drop-4"):
                actions = [AdversaryAction.drop(int(kind[-1]), seq)]
            elif kind == "replay-3" and sources:
                actions = [AdversaryAction.replay(3, rng.choice(sources), seq)]
            elif kind == "replace-4":
                bits = BitString(rng.getrandbits(lam), lam)
                actions = [AdversaryAction.replace(4, TagAuth(bits), seq)]
            else:
                actions = []
            if kind != "drop-2":
                sources.append(seq)
            origin = {(keys.label, keys.slot): slot_origin(server, keys)
                      for keys in offered_slots(server, spec)}
            t = world.session((seq - 1) % n_tags, actions)
            if t.accepted:
                label = t.outcome_server.label
                slot = origin[label, t.outcome_server.matched_slot]
                through[slot] += 1
                if label != t.label:
                    crossed.append((seq, t.label, label, slot, world.whereabouts()[t.label]))
        return through, crossed

    @pytest.mark.parametrize("spec,lam", [(PROD64, 64), (TOY16, 16)], ids=["production64", "toy16"])
    def test_no_accept_through_a_slot_an_accept_left(self, spec, lam):
        through = [self.episode(spec, lam, seed)[0] for seed in (1, 2, 3)]
        assert [t["accept-left"] for t in through] == [0, 0, 0]
        assert sum(t["parked"] for t in through) > 0

    def test_a_tag_accepted_as_another_record_reads_lost(self):
        """The limit of ``World.whereabouts``, which looks for each tag's key
        in its own record's slots only. At 16-bit keys one record's parked
        key can equal another tag's key: session 138 of t002 is accepted as
        t003 through t003's parked slot, and t002 then reads "lost" although
        its sessions go on being accepted, as t003's current slot; later
        the same happens through t005's parked slot."""
        crossed = self.episode(TOY16, 16, seed=1)[1]
        assert [c[:3] for c in crossed if c[3] == "parked"] == [(138, "t002", "t003"),
                                                                (866, "t002", "t005")]
        assert {c[4] for c in crossed} == {"lost"}

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 15")
    def test_a_read_key_verifies_in_no_broadcast_after_its_update(self):
        """The dead-slot leak (ROADMAP item 3): an adversary reads tag 0's
        key and misses the session that updates it. The accept keeps the
        read key in the record's previous slot, so each later broadcast
        carries one candidate that verifies under it by the tag's own check,
        until tag 0's next session."""
        server, tags = keygen(64, 8, Prng(7, 0))
        world = World(server, tags, PROD64)
        assert all(world.session(idx).accepted for idx in range(8))
        read = tags[0].key
        assert world.session(0).accepted
        k_prime = read.split()[0]
        verifying = []
        for idx in range(1, 8):
            t = world.session(idx)
            verifying.append(sum(
                auth_server_tag(PROD64, k_prime, BitString(delta, 64) ^ read, t.x_s.x_s,
                                t.x_t.x_t) == BitString(sigma, t.broadcast.sigma_bits)
                for sigma, delta in zip(t.broadcast.sigmas, t.broadcast.deltas)))
        assert verifying == [0] * 7
