"""In-memory lossy/adversarial channel driving sessions between endpoints.

The channel is a four-flight pipe. A :class:`World` numbers its sessions
from 1 and records every emitted payload under its session's number;
:func:`run_session`, the kernel, drives one session. An
:class:`AdversaryAction` intercepts one flight of one session: drop it,
replace the payload, or replay that flight as an earlier session emitted
it. A replacement must fit the wire (:func:`check_payload_widths`). The
simulator itself never mutates payloads; every transcript field is exactly
what an endpoint emitted or an action substituted, and a field is present
only if its flight was delivered.

The recording keeps each session as one ``bytes``, never as the payload
objects, so the garbage collector tracks nothing in it and a recording of
thousands of sessions adds nothing to a full collection. Every value a
world emits is as wide as its keys, ``lam`` bits, so the recording states
no width: whoever reads it passes the world's. A session's value holds the
flights it emitted, in order: flights 1 to its first dropped flight, or to
4. Flights 1, 2 and 4 are their bit string's ``ceil(lam / 8)`` big-endian
bytes. A broadcast (:class:`~kimap.protocol.BroadcastAuth`) is a 4-byte
candidate count, then each candidate's ``sigma || delta`` as ``ceil(2 *
lam / 8)`` big-endian bytes, in broadcast order. At 64 bits a session of 16
records, 32 candidates, is 540 bytes (573 as a Python object). Over a
3,000-session fault-mix episode a session costs 647 bytes with its key and
its share of the dict, against 1,271 when each flight had a ``(session,
flight)`` key. :func:`recorded` is the one query of what a replay may name;
a replay rebuilds a payload equal to the one its source emitted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence, Union

from .bits import BitString, HashSpec, ParameterError, _trusted, text_format
from .protocol import (
    AuthResult,
    BroadcastAuth,
    Challenge,
    ServerState,
    TagAuth,
    TagNonce,
    TagState,
    offered_slots,
    server_begin,
    server_finalize,
    server_prepare,
    server_timeout,
    slot_origin,
    tag_respond_nonce,
    tag_verify_and_respond,
)

# The payload type each flight carries.
PAYLOAD_TYPES = {1: Challenge, 2: TagNonce, 3: BroadcastAuth, 4: TagAuth}

Payload = Union[Challenge, TagNonce, BroadcastAuth, TagAuth]


class ScheduleError(ParameterError):
    """An action, schedule or session's set of actions that breaks a rule of
    :class:`AdversaryAction`, :class:`FaultSchedule`, :func:`check_payload_widths`
    or :func:`run_session`."""


@dataclass(frozen=True)
class AdversaryAction:
    """One interception of ``flight`` (1-4) in session ``session_seq`` (>= 1).
    A replay delivers that flight as earlier session ``source_session`` emitted it."""

    kind: str  # "drop" | "replace" | "replay"
    flight: int
    session_seq: int
    payload: Optional[Payload] = None
    source_session: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in ("drop", "replace", "replay"):
            raise ScheduleError(f"unknown action kind {self.kind!r}")
        if self.flight not in (1, 2, 3, 4):
            raise ScheduleError(f"flight must be 1-4, got {self.flight}")
        if self.session_seq < 1:
            raise ScheduleError(f"session must be >= 1, got {self.session_seq}")
        if self.kind == "replace" and not isinstance(self.payload, PAYLOAD_TYPES[self.flight]):
            raise ScheduleError(f"replace payload for flight {self.flight} must be "
                                f"{PAYLOAD_TYPES[self.flight].__name__}")
        if self.kind == "replay" and not 1 <= (self.source_session or 0) < self.session_seq:
            raise ScheduleError(f"replay source {self.source_session} is not before session "
                                f"{self.session_seq}")

    @classmethod
    def drop(cls, flight: int, session_seq: int) -> "AdversaryAction":
        return cls("drop", flight, session_seq)

    @classmethod
    def replace(cls, flight: int, payload: Payload, session_seq: int) -> "AdversaryAction":
        return cls("replace", flight, session_seq, payload=payload)

    @classmethod
    def replay(cls, flight: int, source_session: int, session_seq: int) -> "AdversaryAction":
        return cls("replay", flight, session_seq, source_session=source_session)


@dataclass
class FaultSchedule:
    """Ordered interceptions for a multi-session run. Each (session, flight)
    slot may carry at most one action."""

    actions: list[AdversaryAction] = field(default_factory=list)
    # session -> flight -> action, each session's actions in the order added
    _by_session: dict[int, dict[int, AdversaryAction]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        actions, self.actions = self.actions, []
        for a in actions:
            self.add(a)

    def add(self, action: AdversaryAction) -> None:
        by_flight = self._by_session.setdefault(action.session_seq, {})
        if action.flight in by_flight:
            raise ScheduleError(f"duplicate action for session {action.session_seq} "
                                f"flight {action.flight}")
        by_flight[action.flight] = action
        self.actions.append(action)

    def for_session(self, seq: int) -> list[AdversaryAction]:
        by_flight = self._by_session.get(seq)
        return [] if by_flight is None else list(by_flight.values())


@dataclass
class SessionTranscript:
    """Wire view of one session plus both endpoints' outcomes. Message
    fields hold the delivered payloads; ``None`` means the flight was lost.
    ``outcome_server`` is ``None`` when the session died before the server
    had an authentication decision to make (flight 1 or 2 lost), or when
    the view withholds it (a game's ``execute_b``)."""

    session_seq: int
    label: str
    x_s: Optional[Challenge] = None
    x_t: Optional[TagNonce] = None
    broadcast: Optional[BroadcastAuth] = None
    sigma_prime: Optional[TagAuth] = None
    tag_updated: bool = False
    outcome_server: Optional[AuthResult] = None

    @property
    def outcome_tag(self) -> str:
        return "updated" if self.tag_updated else "not_updated"

    @property
    def accepted(self) -> bool:
        return self.outcome_server is not None and self.outcome_server.accepted


# Every emitted payload, the replay source: each session's number maps to
# one bytes of the flights it emitted, in order (see _pack). The garbage
# collector tracks no bytes, so it never walks a recording.
Recording = dict[int, bytes]


def check_payload_widths(payload: Payload, width: int) -> None:
    """The width rule of a payload on the wire: ``x_s``, ``x_t``, every
    ``sigma`` and ``delta`` and ``sigma'`` are ``width`` bits, the key width,
    which the hash output shares because it is the next key. A broadcast
    of candidates has one delta for each sigma, and each of its values must
    fit that width."""
    if not isinstance(payload, BroadcastAuth):
        return check_field_widths(vars(payload).items(), width)
    sigmas, deltas = payload
    if len(sigmas) != len(deltas):
        raise ScheduleError(f"replacement broadcast has {len(sigmas)} sigma and "
                            f"{len(deltas)} delta values")
    for name, column in (("sigma", sigmas), ("delta", deltas)):
        for value in column:
            if value >> width:
                raise ScheduleError(f"replacement {name} {value:#x} does not fit in {width} bits")


def check_field_widths(fields: Iterable[tuple[str, BitString]], width: int) -> None:
    """:func:`check_payload_widths` on each ``(name, value)`` of ``fields``."""
    for name, value in fields:
        if len(value) != width:
            raise ScheduleError(f"replacement {name} {value.to_text()} is {len(value)} bits, "
                                f"not {width}")


def _fit(actions: Sequence[AdversaryAction], session_seq: int,
         emitted: Callable[[int, int], bool], width: int) -> dict[int, AdversaryAction]:
    """The actions of session ``session_seq`` by flight, or :class:`ScheduleError`
    if one does not fit it: each names the session, no two act on one flight,
    a replacement has the wire's width, and a replay's source session
    ``emitted`` the replayed flight."""
    by_flight: dict[int, AdversaryAction] = {}
    for a in actions:
        if a.session_seq != session_seq:
            raise ScheduleError(f"action on flight {a.flight} is for session {a.session_seq}, "
                                f"not session {session_seq}")
        if a.flight in by_flight:
            raise ScheduleError(f"two actions on flight {a.flight} of session {session_seq}")
        if a.kind == "replace":
            check_payload_widths(a.payload, width)
        elif a.kind == "replay" and not emitted(a.source_session, a.flight):
            raise ScheduleError(f"replay source session {a.source_session} flight {a.flight} "
                                f"was never recorded")
        by_flight[a.flight] = a
    return by_flight


def recorded(recording: Recording, session: int, flight: int, width: int) -> Optional[bytes]:
    """What ``recording``, of a world whose keys are ``width`` bits, keeps of
    ``flight`` of session ``session``: the bytes :func:`_pack` made of it, or
    ``None`` when the session never emitted that flight (it never ran, or
    lost an earlier one). A replay may name a flight exactly when this is
    not ``None``."""
    value = recording.get(session, b"")
    start = end = 0
    for f in range(1, flight + 1):
        start = end
        if start >= len(value):
            return None
        if f == 3:
            end = start + 4 + int.from_bytes(value[start:start + 4], "big") * ((2 * width + 7) >> 3)
        else:
            end = start + ((width + 7) >> 3)
    return value[start:end]


def _pack(flight: int, payload: Payload, width: int) -> bytes:
    """What a recording keeps of a payload whose values are ``width`` bits:
    the whole bytes of the one bit string of flight 1, 2 or 4, or a
    broadcast's 4-byte candidate count and then each candidate's ``sigma ||
    delta`` in as many whole bytes as twice the width needs, in broadcast
    order."""
    if flight != 3:
        (bits,) = vars(payload).values()
        return bits._value.to_bytes((width + 7) >> 3, "big")
    sigmas, deltas = payload
    nbytes = (2 * width + 7) >> 3
    return len(sigmas).to_bytes(4, "big") + b"".join(
        [(s << width | d).to_bytes(nbytes, "big") for s, d in zip(sigmas, deltas)])


def _rebuild(flight: int, packed: bytes, width: int) -> Payload:
    """The payload :func:`_pack` kept as ``packed`` at ``width`` bits, equal
    to the one it packed."""
    if flight != 3:
        return PAYLOAD_TYPES[flight](_trusted(int.from_bytes(packed, "big"), width))
    nbytes, mask = (2 * width + 7) >> 3, (1 << width) - 1
    wire = [int.from_bytes(packed[i:i + nbytes], "big") for i in range(4, len(packed), nbytes)]
    return BroadcastAuth(tuple([v >> width for v in wire]), tuple([v & mask for v in wire]))


def _deliver(flight: int, emitted: Payload, by_flight: dict[int, AdversaryAction],
             session_seq: int, recording: Optional[Recording], width: int) -> Optional[Payload]:
    if recording is not None:
        # Flight 1 starts the session's value, so a session re-run under the
        # same number replaces it; each later flight extends it.
        packed = _pack(flight, emitted, width)
        recording[session_seq] = recording[session_seq] + packed if flight > 1 else packed
    action = by_flight.get(flight)
    if action is None:
        return emitted
    if action.kind == "drop":
        return None
    if action.kind == "replace":
        return action.payload
    return _rebuild(flight, recorded(recording, action.source_session, flight, width), width)


def run_session(server: ServerState, tag: TagState, actions: list[AdversaryAction],
                spec: HashSpec, *, session_seq: int = 1, label: str = "",
                recording: Optional[Recording] = None) -> SessionTranscript:
    """Drive the four flights of session ``session_seq`` once, applying the
    actions: the kernel of :meth:`World.session`, which numbers sessions.

    Every action must fit this session: it names ``session_seq``, no two act
    on one flight, a replacement has the width of ``server``'s keys
    (:func:`check_payload_widths`), and a replay's source flight is already
    in ``recording`` (its earlier session emitted it). Otherwise
    :class:`ScheduleError` is raised before any flight runs, and no state
    changes; so is :class:`~kimap.bits.ParameterError` when ``spec``'s
    output or ``tag``'s key is not as wide as the server's keys. Without a
    ``recording`` nothing is recorded and no replay fits.

    Drops and rejections are recorded outcomes, never exceptions. A lost
    flight 3 or 4 leaves the server with an unanswered session, which it
    treats exactly like an invalid answer (timeout path).
    """
    lam = server.lam
    if spec.output_len_bits != lam:
        raise ParameterError(f"hash output is {spec.output_len_bits} bits, the keys {lam}")
    if len(tag.key) != lam:
        raise ParameterError(f"tag key is {len(tag.key)} bits, the keys {lam}")
    by_flight = (_fit(actions, session_seq,
                      lambda source, f: recorded(recording or {}, source, f, lam) is not None,
                      lam)
                 if actions else {})
    t = SessionTranscript(session_seq=session_seq, label=label)

    challenge = server_begin(server)
    delivered_ch = _deliver(1, challenge, by_flight, session_seq, recording, lam)
    t.x_s = delivered_ch
    if delivered_ch is None:
        return t

    nonce = tag_respond_nonce(tag)
    delivered_nonce = _deliver(2, nonce, by_flight, session_seq, recording, lam)
    t.x_t = delivered_nonce
    if delivered_nonce is None:
        tag.pending = None
        return t

    broadcast, pending = server_prepare(server, challenge.x_s, delivered_nonce.x_t, spec)
    delivered_bc = _deliver(3, broadcast, by_flight, session_seq, recording, lam)
    t.broadcast = delivered_bc
    if delivered_bc is None:
        tag.pending = None
        t.outcome_server = server_timeout(server, pending)
        return t

    counter_before = tag.counter
    ta = tag_verify_and_respond(tag, delivered_ch.x_s, delivered_bc, spec)
    t.tag_updated = tag.counter != counter_before
    delivered_ta = _deliver(4, ta, by_flight, session_seq, recording, lam)
    t.sigma_prime = delivered_ta
    if delivered_ta is None:
        t.outcome_server = server_timeout(server, pending)
        return t

    t.outcome_server = server_finalize(server, pending, delivered_ta)
    return t


@dataclass
class World:
    """A server, its tags (``tags[i]`` answers for its ``i``-th record), the replay
    recording and the next session's number: sessions count from 1 as they complete.
    A world has one tag per record: any other count is refused when it is built."""

    server: ServerState
    tags: list[TagState]
    spec: HashSpec
    recording: Recording = field(default_factory=dict, init=False)
    next_seq: int = field(default=1, init=False)

    def __post_init__(self) -> None:
        if len(self.tags) != len(self.server.records):
            raise ParameterError(f"{len(self.tags)} tags for {len(self.server.records)} records")

    def session(self, idx: int, actions: Sequence[AdversaryAction] = ()) -> SessionTranscript:
        """Run session ``next_seq`` on ``tags[idx]``; a refused one changes nothing."""
        t = run_session(self.server, self.tags[idx], actions, self.spec, session_seq=self.next_seq,
                        label=list(self.server.records)[idx], recording=self.recording)
        self.next_seq += 1
        return t

    def run(self, schedule: FaultSchedule, n_sessions: int) -> list[SessionTranscript]:
        """Run the next ``n_sessions`` sessions round-robin, with their scheduled
        actions. The run is refused whole, before its first session and with
        nothing changed, unless every session's actions fit it as
        :func:`run_session` requires; a replay's source session in the run
        must drop no flight before the replayed one."""
        if n_sessions < 1:
            raise ParameterError(f"sessions must be >= 1, got {n_sessions}")
        first, lam = self.next_seq, self.server.lam
        plan = [schedule.for_session(seq) for seq in range(first, first + n_sessions)]
        planned: dict[int, int] = {}  # a session of the run -> the last flight it will emit

        def emitted(source: int, flight: int) -> bool:
            if source in planned:
                return flight <= planned[source]
            return recorded(self.recording, source, flight, lam) is not None

        for seq, actions in enumerate(plan, first):
            by_flight = _fit(actions, seq, emitted, lam)
            planned[seq] = min((f for f, a in by_flight.items() if a.kind == "drop"), default=4)
        return [self.session((self.next_seq - 1) % len(self.tags), actions) for actions in plan]

    def whereabouts(self) -> dict[str, str]:
        """Where each tag's key sits among the slots the next broadcast
        offers its record (:func:`~kimap.protocol.offered_slots`), by the
        record's label: ``"current"``, ``"accept-left"`` or ``"parked"``, as
        :func:`~kimap.protocol.slot_origin` names the slot, or ``"lost"``
        when no slot offered for its record holds it. An exhausted record
        offers no slot, so its tag reads lost. Only a simulator can know
        this: the server never sees a tag's key. Slots are built through the
        server's slot cache, as a session builds them.

        Each tag is looked for in its own record's slots only. At narrow
        keys (16 bits) another record's slot can hold the same key, and the
        tag's sessions are then accepted as that record: the tag reads
        ``"lost"`` here while its sessions are accepted under another
        label."""
        server = self.server
        keys = dict(zip(server.records, (tag.key for tag in self.tags)))
        where = dict.fromkeys(keys, "lost")
        for slot in offered_slots(server, self.spec):
            if where[slot.label] == "lost" and slot.key == keys[slot.label]:
                where[slot.label] = slot_origin(server, slot)
        return where


# ---------------------------------------------------------------------------
# Transcript dump format (consumed by the CLI reporter).
# ---------------------------------------------------------------------------

def transcript_line(t: SessionTranscript) -> str:
    """One session as a single structured-text record."""
    def enc(v) -> str:
        return "-" if v is None else v.to_text()

    bc = "-"
    if t.broadcast is not None:
        # a delivered broadcast follows a delivered flight 1, at the wire's width
        width = len(t.x_s.x_s)
        pair = f"{text_format(width)}/{text_format(width, 1)}"
        bc = ",".join(map(pair.format, *t.broadcast))
    server = "-" if t.outcome_server is None else t.outcome_server.outcome
    return (f"transcript session={t.session_seq} tag={t.label} "
            f"x_s={enc(t.x_s.x_s if t.x_s else None)} "
            f"x_t={enc(t.x_t.x_t if t.x_t else None)} "
            f"broadcast={bc} "
            f"sigma_prime={enc(t.sigma_prime.sigma_prime if t.sigma_prime else None)} "
            f"tag={t.outcome_tag} server={server}")
