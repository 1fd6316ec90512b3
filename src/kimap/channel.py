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
thousands of sessions adds nothing to a full collection. A session's value
holds the flights it emitted, in order: flights 1 to its first dropped
flight, or to 4. Flights 1, 2 and 4 are a 4-byte header of their bit
string's width, then its ``ceil(width / 8)`` big-endian bytes. A broadcast
(:class:`~kimap.protocol.BroadcastAuth`) is a 12-byte header of its sigma
width, its delta width and its candidate count, then each candidate's
``sigma || delta`` as ``ceil((sigma + delta) / 8)`` big-endian bytes, in
broadcast order. At 64 bits a session of 16 records, 32 candidates, is 560
bytes (593 as a Python object). Over a 3,000-session fault-mix episode a
session costs 667 bytes with its key and its share of the dict, against
1,271 when each flight had a ``(session, flight)`` key. :func:`recorded` is
the one query of what a replay may name; a replay rebuilds a payload equal
to the one its source emitted.
"""

from __future__ import annotations

import struct
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

# The header of a recorded flight 1, 2 or 4: its bit string's width.
_WIDTH = struct.Struct(">I")
# The header of a recorded broadcast: its sigma and delta widths and its
# candidate count.
_BROADCAST = struct.Struct(">III")


def check_payload_widths(payload: Payload, key_bits: int, hash_bits: int) -> None:
    """The width rule of a payload on the wire: ``x_s``, ``x_t`` and every
    ``delta`` are ``key_bits`` wide, every ``sigma`` and ``sigma'``
    ``hash_bits`` (the hash output width). A broadcast states each column's
    width once, so its first ``sigma`` and ``delta`` stand for all."""
    if isinstance(payload, BroadcastAuth):
        sigma_bits, delta_bits, sigmas, deltas = payload
        fields = ((("sigma", _trusted(sigmas[0], sigma_bits)),
                   ("delta", _trusted(deltas[0], delta_bits))) if sigmas else ())
    else:
        fields = vars(payload).items()
    check_field_widths(fields, key_bits, hash_bits)


def check_field_widths(fields: Iterable[tuple[str, BitString]], key_bits: int,
                       hash_bits: int) -> None:
    """:func:`check_payload_widths` on each ``(name, value)`` of ``fields``,
    named as the payload fields are: a name starting ``sigma`` is
    ``hash_bits`` wide, any other ``key_bits``."""
    for name, value in fields:
        width = hash_bits if name.startswith("sigma") else key_bits
        if len(value) != width:
            raise ScheduleError(f"replacement {name} {value.to_text()} is {len(value)} bits, "
                                f"not {width}")


def _fit(actions: Sequence[AdversaryAction], session_seq: int,
         emitted: Callable[[int, int], bool], key_bits: int,
         hash_bits: int) -> dict[int, AdversaryAction]:
    """The actions of session ``session_seq`` by flight, or :class:`ScheduleError`
    if one does not fit it: each names the session, no two act on one flight,
    a replacement has the wire's widths, and a replay's source session
    ``emitted`` the replayed flight."""
    by_flight: dict[int, AdversaryAction] = {}
    for a in actions:
        if a.session_seq != session_seq:
            raise ScheduleError(f"action on flight {a.flight} is for session {a.session_seq}, "
                                f"not session {session_seq}")
        if a.flight in by_flight:
            raise ScheduleError(f"two actions on flight {a.flight} of session {session_seq}")
        if a.kind == "replace":
            check_payload_widths(a.payload, key_bits, hash_bits)
        elif a.kind == "replay" and not emitted(a.source_session, a.flight):
            raise ScheduleError(f"replay source session {a.source_session} flight {a.flight} "
                                f"was never recorded")
        by_flight[a.flight] = a
    return by_flight


def recorded(recording: Recording, session: int, flight: int) -> Optional[bytes]:
    """What ``recording`` keeps of ``flight`` of session ``session``: the
    bytes :func:`_pack` made of it, or ``None`` when the session never
    emitted that flight (it never ran, or lost an earlier one). A replay may
    name a flight exactly when this is not ``None``."""
    value = recording.get(session, b"")
    start = end = 0
    for f in range(1, flight + 1):
        start = end
        if start >= len(value):
            return None
        if f == 3:
            sigma_bits, delta_bits, n = _BROADCAST.unpack_from(value, start)
            end = start + _BROADCAST.size + n * ((sigma_bits + delta_bits + 7) >> 3)
        else:
            end = start + _WIDTH.size + ((_WIDTH.unpack_from(value, start)[0] + 7) >> 3)
    return value[start:end]


def _pack(flight: int, payload: Payload) -> bytes:
    """What a recording keeps of a payload: the :data:`_WIDTH` header and
    whole bytes of the one bit string of flight 1, 2 or 4, or a broadcast's
    :data:`_BROADCAST` header and then each candidate's ``sigma || delta``
    in as many whole bytes as their widths need, in broadcast order."""
    if flight != 3:
        (bits,) = vars(payload).values()
        return _WIDTH.pack(bits._length) + bits._value.to_bytes((bits._length + 7) >> 3, "big")
    sigma_bits, delta_bits, sigmas, deltas = payload
    nbytes = (sigma_bits + delta_bits + 7) >> 3
    return _BROADCAST.pack(sigma_bits, delta_bits, len(sigmas)) + b"".join(
        [(s << delta_bits | d).to_bytes(nbytes, "big") for s, d in zip(sigmas, deltas)])


def _rebuild(flight: int, packed: bytes) -> Payload:
    """The payload :func:`_pack` kept as ``packed``, equal to the one it packed."""
    if flight != 3:
        return PAYLOAD_TYPES[flight](
            _trusted(int.from_bytes(packed[_WIDTH.size:], "big"), *_WIDTH.unpack_from(packed)))
    sigma_bits, delta_bits, _ = _BROADCAST.unpack_from(packed)
    nbytes, mask = (sigma_bits + delta_bits + 7) >> 3, (1 << delta_bits) - 1
    # nbytes is 0 only for an empty broadcast, where no byte follows the header.
    wire = [int.from_bytes(packed[i:i + nbytes], "big")
            for i in range(_BROADCAST.size, len(packed), nbytes or 1)]
    return BroadcastAuth(sigma_bits, delta_bits, tuple([v >> delta_bits for v in wire]),
                         tuple([v & mask for v in wire]))


def _deliver(flight: int, emitted: Payload, by_flight: dict[int, AdversaryAction],
             session_seq: int, recording: Optional[Recording]) -> Optional[Payload]:
    if recording is not None:
        # Flight 1 starts the session's value, so a session re-run under the
        # same number replaces it; each later flight extends it.
        packed = _pack(flight, emitted)
        recording[session_seq] = recording[session_seq] + packed if flight > 1 else packed
    action = by_flight.get(flight)
    if action is None:
        return emitted
    if action.kind == "drop":
        return None
    if action.kind == "replace":
        return action.payload
    return _rebuild(flight, recorded(recording, action.source_session, flight))


def run_session(server: ServerState, tag: TagState, actions: list[AdversaryAction],
                spec: HashSpec, *, session_seq: int = 1, label: str = "",
                recording: Optional[Recording] = None) -> SessionTranscript:
    """Drive the four flights of session ``session_seq`` once, applying the
    actions: the kernel of :meth:`World.session`, which numbers sessions.

    Every action must fit this session: it names ``session_seq``, no two act
    on one flight, a replacement has the widths of ``server``'s keys and of
    ``spec``'s output (:func:`check_payload_widths`), and a replay's source
    flight is already in ``recording`` (its earlier session emitted it).
    Otherwise :class:`ScheduleError` is raised before any flight runs, and
    no state changes. Without a ``recording`` nothing is recorded and no
    replay fits.

    Drops and rejections are recorded outcomes, never exceptions. A lost
    flight 3 or 4 leaves the server with an unanswered session, which it
    treats exactly like an invalid answer (timeout path).
    """
    by_flight = (_fit(actions, session_seq,
                      lambda source, f: recorded(recording or {}, source, f) is not None,
                      server.lam, spec.output_len_bits)
                 if actions else {})
    t = SessionTranscript(session_seq=session_seq, label=label)

    challenge = server_begin(server)
    delivered_ch = _deliver(1, challenge, by_flight, session_seq, recording)
    t.x_s = delivered_ch
    if delivered_ch is None:
        return t

    nonce = tag_respond_nonce(tag)
    delivered_nonce = _deliver(2, nonce, by_flight, session_seq, recording)
    t.x_t = delivered_nonce
    if delivered_nonce is None:
        tag.pending = None
        return t

    broadcast, pending = server_prepare(server, challenge.x_s, delivered_nonce.x_t, spec)
    delivered_bc = _deliver(3, broadcast, by_flight, session_seq, recording)
    t.broadcast = delivered_bc
    if delivered_bc is None:
        tag.pending = None
        t.outcome_server = server_timeout(server, pending)
        return t

    counter_before = tag.counter
    ta = tag_verify_and_respond(tag, delivered_ch.x_s, delivered_bc, spec)
    t.tag_updated = tag.counter != counter_before
    delivered_ta = _deliver(4, ta, by_flight, session_seq, recording)
    t.sigma_prime = delivered_ta
    if delivered_ta is None:
        t.outcome_server = server_timeout(server, pending)
        return t

    t.outcome_server = server_finalize(server, pending, delivered_ta)
    return t


@dataclass
class World:
    """A server, its tags (``tags[i]`` answers for its ``i``-th record), the replay
    recording and the next session's number: sessions count from 1 as they complete."""

    server: ServerState
    tags: list[TagState]
    spec: HashSpec
    recording: Recording = field(default_factory=dict, init=False)
    next_seq: int = field(default=1, init=False)

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
        first = self.next_seq
        plan = [schedule.for_session(seq) for seq in range(first, first + n_sessions)]
        planned: dict[int, int] = {}  # a session of the run -> the last flight it will emit

        def emitted(source: int, flight: int) -> bool:
            if source in planned:
                return flight <= planned[source]
            return recorded(self.recording, source, flight) is not None

        for seq, actions in enumerate(plan, first):
            by_flight = _fit(actions, seq, emitted, self.server.lam, self.spec.output_len_bits)
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
        sigma_bits, delta_bits, sigmas, deltas = t.broadcast
        pair = f"{text_format(sigma_bits)}/{text_format(delta_bits, 1)}"
        bc = ",".join(map(pair.format, sigmas, deltas))
    server = "-" if t.outcome_server is None else t.outcome_server.outcome
    return (f"transcript session={t.session_seq} tag={t.label} "
            f"x_s={enc(t.x_s.x_s if t.x_s else None)} "
            f"x_t={enc(t.x_t.x_t if t.x_t else None)} "
            f"broadcast={bc} "
            f"sigma_prime={enc(t.sigma_prime.sigma_prime if t.sigma_prime else None)} "
            f"tag={t.outcome_tag} server={server}")
