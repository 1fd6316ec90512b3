"""Every drop schedule of a small fleet, searched in full with the real
implementation (ROADMAP item 9).

From the keygen state of N tags (production(64), seed 7), a breadth-first
search applies every move to every state it reaches: one session of one tag,
with no action or with flight 2, 3 or 4 dropped. States are told apart by an
abstraction of each record, read through the library's two queries: where
its tag's key sits (``World.whereabouts``: the current slot, a previous slot
the record's accept left, a previous slot a failed session parked, or none:
"lost"), ``min(consecutive_failures, 3)``, and how many slots the next
broadcast offers the record (``offered_slots``). Each abstract state keeps
the first two concrete worlds that reached it (server, tags, replay
recording and session number), and a move runs on a deep copy of one. The
first representative's moves are the transitions that the figures count;
every other move must reach the same abstract successor, or the abstraction
would not be a function of the state.
"""

import copy
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache

import pytest

from kimap.bits import BitString, HashSpec, Prng
from kimap.channel import PAYLOAD_TYPES, AdversaryAction, World, recorded
from kimap.protocol import BroadcastAuth, keygen, offered_slots

SPEC = HashSpec.production(64)
MOVES = ((), (2,), (3,), (4,))  # the flight a session drops, if any
REPRESENTATIVES = 2


def abstract(world):
    offered = [keys.label for keys in offered_slots(world.server, world.spec)]
    records = world.server.records
    return tuple((place, min(records[label].consecutive_failures, 3), offered.count(label))
                 for label, place in world.whereabouts().items())


def after(world, idx, actions):
    """The abstract state a deep copy of ``world`` reaches, the copy, and the
    session's transcript, after one session of tag ``idx`` under
    ``actions``, each built for the session's number."""
    # A recorded session is an immutable bytes: copy the dict alone.
    world = copy.deepcopy(world, {id(world.recording): dict(world.recording)})
    t = world.session(idx, [action(world.next_seq) for action in actions])
    return abstract(world), world, t


def drops(move):
    return [lambda seq, f=f: AdversaryAction.drop(f, seq) for f in move]


@dataclass
class Search:
    states: int = 0
    transitions: int = 0
    depth: int = 0             # levels expanded, the last one reaching no new state
    left_lost: int = 0         # transitions that give a lost tag its key back
    cross_tag_losses: int = 0  # transitions in which a session loses another tag
    flag_misses: int = 0       # lost records of reachable states not flagged
    flagged: int = 0           # flagged records of reachable states
    flagged_lost: int = 0      # ... whose tag is lost
    sessions: int = 0          # concrete sessions run, every representative's moves
    conflicts: int = 0         # moves whose abstract successor differs from the first's
    # transitions that accept a tag whose key sat in a previous slot, by
    # what put it there: the record's own accept, or a failed session's hedge
    previous_slot_accepts: dict = field(
        default_factory=lambda: {"accept-left": 0, "parked": 0})
    start: tuple = ()          # the abstract state of the keygen world
    # abstract state -> its representatives, and (state, tag, move) -> successor
    worlds: dict = field(default_factory=dict, repr=False)
    successor: dict = field(default_factory=dict, repr=False)


@lru_cache(maxsize=None)
def search(n):
    start = World(*keygen(64, n, Prng(7, 0)), SPEC)
    out = Search()
    worlds, successor = out.worlds, out.successor
    worlds[start_state := abstract(start)] = [start]
    out.start = start_state
    levels = {start_state: 0}
    frontier = [(start_state, start)]
    while frontier:
        reached = []
        for state, world in frontier:
            for idx in range(n):
                for move in MOVES:
                    succ, next_world, t = after(world, idx, drops(move))
                    out.sessions += 1
                    key = state, idx, move
                    if key in successor:
                        out.conflicts += successor[key] != succ
                    else:
                        successor[key] = succ
                        out.transitions += 1
                        lost = [s[0] == "lost" for s in state], [s[0] == "lost" for s in succ]
                        out.left_lost += any(a and not b for a, b in zip(*lost))
                        out.cross_tag_losses += any(b and not a for j, (a, b)
                                                    in enumerate(zip(*lost)) if j != idx)
                        if t.accepted and state[idx][0] in out.previous_slot_accepts:
                            out.previous_slot_accepts[state[idx][0]] += 1
                    kept = worlds.setdefault(succ, [])
                    if len(kept) < REPRESENTATIVES:
                        kept.append(next_world)
                        levels.setdefault(succ, levels[state] + 1)
                        reached.append((succ, next_world))
        frontier = reached
    out.states = len(worlds)
    out.depth = max(levels.values()) + 1
    for state, (world, *_) in worlds.items():
        for (place, _, _), rec in zip(state, world.server.records.values()):
            out.flag_misses += place == "lost" and not rec.desynchronized
            out.flagged += rec.desynchronized
            out.flagged_lost += rec.desynchronized and place == "lost"
    return out


# N -> (states, transitions, levels expanded, cross-tag losses, flagged records,
# flagged records whose tag is lost)
PINS = {1: (10, 40, 4, 0, 6, 2),
        2: (74, 592, 5, 84, 94, 34),
        3: (522, 6264, 6, 1458, 1014, 378)}


@pytest.mark.parametrize("n", sorted(PINS))
def test_search_closes_with_the_pinned_figures(n):
    """Every state has 4N moves. The flag (two or more failures since an
    accept) is right about a lost tag in only about a third of the records
    it marks, and a session of one tag loses another (ROADMAP item 1)."""
    s = search(n)
    assert (s.states, s.transitions, s.depth, s.cross_tag_losses, s.flagged,
            s.flagged_lost) == PINS[n]
    assert s.transitions == 4 * n * s.states


@pytest.mark.parametrize("n", sorted(PINS))
def test_representatives_of_a_state_reach_the_same_successors(n):
    """A second concrete world of each abstract state, where the search
    found one, moves to the abstract successors the first moves to."""
    s = search(n)
    assert s.conflicts == 0
    assert s.sessions > s.transitions


@pytest.mark.parametrize("n", sorted(PINS))
def test_lost_is_absorbing(n):
    assert search(n).left_lost == 0


@pytest.mark.parametrize("n", sorted(PINS))
def test_flag_never_misses_a_lost_record(n):
    assert search(n).flag_misses == 0


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")
@pytest.mark.parametrize("n", [2, 3])
def test_no_session_loses_another_tag(n):
    assert search(n).cross_tag_losses == 0


# N -> accepts through a previous slot that a hedge set (ROADMAP item 15)
HEDGE_SET_ACCEPTS = {1: 3, 2: 36, 3: 315}


@pytest.mark.parametrize("n", sorted(HEDGE_SET_ACCEPTS))
def test_no_accept_goes_through_a_slot_an_accept_set(n):
    """The exhaustive form of ``test_channel.TestAcceptLeftSlot``: a
    previous slot set by the record's own accept is never matched, so an
    accept may clear it (ROADMAP item 15); slots a hedge parked are matched
    and must stay."""
    assert search(n).previous_slot_accepts == {"accept-left": 0, "parked": HEDGE_SET_ACCEPTS[n]}


def fewest_interceptions(s, n, goal):
    """The fewest dropped flights that take the keygen state to one where
    ``goal`` holds: a 0-1 shortest path over the search's transitions, in
    which a session with no action costs 0 and one with a drop costs 1."""
    best = {s.start: 0}
    queue = deque([(0, s.start)])
    while queue:
        cost, state = queue.popleft()
        if cost > best[state]:
            continue
        if goal(state):
            return cost
        for idx in range(n):
            for move in MOVES:
                succ, succ_cost = s.successor[state, idx, move], cost + bool(move)
                if succ_cost < best.get(succ, succ_cost + 1):
                    best[succ] = succ_cost
                    (queue.append if move else queue.appendleft)((succ_cost, succ))
    return None


# N -> fewest interceptions that lose every tag, and that lose tag 0
PRICES = {1: (2, 2), 2: (2, 2), 3: (3, 2)}


@pytest.mark.parametrize("n", sorted(PRICES))
def test_desynchronization_price_is_n_interceptions(n):
    """ROADMAP item 14: losing the whole fleet takes N interceptions (2 at
    N = 1), not N + 1, because a lost tag's next honest session is rejected
    and re-parks every record for free; losing one chosen tag takes 2."""
    s = search(n)
    every = fewest_interceptions(s, n, lambda state: all(r[0] == "lost" for r in state))
    tag0 = fewest_interceptions(s, n, lambda state: state[0][0] == "lost")
    assert (every, tag0) == PRICES[n]


# Replacement payloads: zero bits of the wire's widths, which no endpoint
# accepts at 64 bits.
ZERO = BitString(0, 64)
REPLACEMENTS = {1: PAYLOAD_TYPES[1](ZERO), 2: PAYLOAD_TYPES[2](ZERO),
                3: BroadcastAuth(64, 64, (0,), (0,)), 4: PAYLOAD_TYPES[4](ZERO)}


def move_class(kind, flight):
    """The drop move an action acts as: dropping flight 1 or 2 ends the
    session before the server commits anything, like drop(2); a replaced or
    replayed flight 1-3 makes the tag reject the broadcast, like drop(3);
    a replaced or replayed flight 4 makes the server reject a tag that
    ratcheted, like drop(4)."""
    if kind == "drop" and flight <= 2:
        return (2,)
    return (3,) if flight <= 3 else (4,)


def action(kind, flight, world):
    """The action of ``kind`` on ``flight`` as a function of the session
    number, or None for a replay with no earlier session that emitted the
    flight. A replay names the latest such session."""
    if kind == "drop":
        return lambda seq: AdversaryAction.drop(flight, seq)
    if kind == "replace":
        return lambda seq: AdversaryAction.replace(flight, REPLACEMENTS[flight], seq)
    sources = [seq for seq in world.recording
               if recorded(world.recording, seq, flight) is not None]
    if not sources:
        return None
    return lambda seq: AdversaryAction.replay(flight, max(sources), seq)


# N -> actions checked (every kind and flight of every tag in every state,
# less the replays that have no source)
ACTION_CHECKS = {1: 113, 2: 1762}


@pytest.mark.parametrize("n", sorted(ACTION_CHECKS))
def test_every_action_acts_as_its_move_class(n):
    """From each state's first representative, every drop, replacement and
    replay of every flight of every tag's session reaches the abstract
    successor of its move class."""
    s = search(n)
    checks, mismatches = 0, []
    for state, (world, *_) in s.worlds.items():
        for idx in range(n):
            for kind in ("drop", "replace", "replay"):
                for flight in (1, 2, 3, 4):
                    act = action(kind, flight, world)
                    if act is None:
                        continue
                    checks += 1
                    if after(world, idx, [act])[0] != s.successor[state, idx,
                                                                  move_class(kind, flight)]:
                        mismatches.append((state, idx, kind, flight))
    assert (checks, mismatches) == (ACTION_CHECKS[n], [])
