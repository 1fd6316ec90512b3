"""Key-insulated mutual authentication: algorithms and session state machines.

A session is four flights between a server and one tag:

1. server -> tag: a fresh challenge ``x_s``
2. tag -> server: a fresh nonce ``x_t``
3. server -> tag: per-candidate ``(sigma, delta)`` where
   ``x = H_i(SK*, k)`` is the session's partial key derived from the
   server-only master secret, ``sigma = H(k' || x, x_s || x_t)``
   authenticates the server, and ``delta = k XOR x`` one-time-pads the
   partial key under the shared key
4. tag -> server: ``sigma' = H(x_t || x_s, sk)`` with session key
   ``sk = k' || x'``; both sides then ratchet ``k -> H(k'' || x'', x_s)``

``k'``/``k''`` and ``x'``/``x''`` are the left/right halves of ``k`` and
``x``. The tag keeps only its current key (and a session counter) between
sessions; the server keeps its master secret ``SK*`` and, per tag label,
the current key, one previous-key slot used for desynchronization recovery,
the counter and a count of consecutive failed sessions.

The server never learns which tag it is talking to from the wire: flight 3
carries one candidate per (record, key slot), shuffled, and flight 4
identifies the record by matching ``sigma'`` against precomputed
expectations. The tag checks every candidate whether or not one matches.

A slot is a :class:`SlotKeys`, which :func:`slot_keys` builds from the key
and counter it is given, at one hash (the partial key) and one XOR
(``delta``), and the server caches until the key or the counter changes.
In this module only :func:`offered_slots` reads a record's keys into slots,
and only :func:`server_finalize`/:func:`server_timeout` write a slot's next
key back (commit and hedge); :func:`slot_origin` says what put a slot's key
there. A session's spec and terms are a :class:`SessionOperands`, built
once by :func:`session_operands` and shared by the tag's scan. Neither
object restates a width: a slot's is its key's, a session's is ``x_s``'s
(``x_t`` is held to it), and each is held to the master's before the
shuffle. Per session, one :func:`make_candidate` call hashes 2 digests per
candidate (``sigma`` and the expected ``sigma'``), each from one slot term
ORed with one session term (:func:`~kimap.bits.hash2_layout`), and returns
the broadcast and its :class:`PendingSession`. The next key, one hash from
the slot's ``k'' || x''`` term and the session's ``x_s`` term, is computed
only for the matched candidate, or for every record when a failed session
hedges. Every value on the wire is as wide as the keys, because the hash
output is the next key and the partial key, so a :class:`BroadcastAuth`
states no width: it is flight 3 as two int columns, which the tag's scan
holds to the key's width before its first hash. :func:`partial_key`,
:func:`session_key`, :func:`key_update`, :func:`auth_server_tag` and
:func:`auth_tag_msg` state the paper's formulas on bitstrings, and the tests
hold the int path to them.

A flight 4 that :func:`server_finalize` rejects fails as a missing one
does, through :func:`server_timeout`: the server parks the candidate
next-key in the record's previous-key slot so that a tag which did ratchet
can still be matched next session. A record with two consecutive failures reads as
desynchronized (a second blocked final flight is unrecoverable by design);
the flag is derived from the failure count, never stored.

``H_i`` binds the counter as a ``COUNTER_BITS``-bit (32-bit) prefix, so a
record at counter 2**32 - 1 is exhausted: accepting it would move the
counter past that width. :func:`offered_slots` offers such a record no
slot, so its tag's sessions are rejected and the record stays as it is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

from .bits import (COUNTER_BITS, BitString, HashSpec, LengthError, OpMeter, ParameterError, Prng,
                   _trusted, counter_hash, hash2, hash2_layout, metered, prng_next, split, xor)


class SessionOrderError(Exception):
    """A session step ran with no matching session in flight (driver bug,
    not an attack: attacks are modelled as values, not exceptions)."""


def _mismatch(*parts: BitString) -> LengthError:
    """The width error for operands whose lengths do not fit together."""
    return LengthError(f"inconsistent operand lengths: {[len(p) for p in parts]}")


# ---------------------------------------------------------------------------
# State and message types.
# ---------------------------------------------------------------------------

@dataclass
class TagState:
    """One tag. Persistent state between sessions is exactly the current
    key and the session counter; everything else is transient. ``pending``
    is the nonce ``x_t`` of the session in flight."""

    key: BitString
    counter: int
    prng: Prng
    meter: OpMeter = field(default_factory=OpMeter)
    pending: Optional[BitString] = field(default=None, repr=False)

    @property
    def persistent_secret_bits(self) -> int:
        return len(self.key)


@dataclass
class ServerTagRecord:
    """The server's state for one tag, stored under the tag's label in
    ``ServerState.records``."""

    key_current: BitString
    key_previous: Optional[BitString]
    counter: int
    consecutive_failures: int = 0

    @property
    def desynchronized(self) -> bool:
        """Two or more failed sessions since the last accept: the recovery
        slot has been overwritten, so a tag that ratcheted may be lost."""
        return self.consecutive_failures >= 2


class SlotKeys(NamedTuple):
    """One (record, key slot): the record ``label`` holds ``key`` in
    ``slot`` ("current" | "previous"), and the values derived from ``key``
    at session ``counter`` and its partial key ``x = H_i(SK*, k)``:
    ``delta``, the int ``k XOR x`` that the broadcast carries, and the
    slot's terms of the three hashes that use ``x``, encoded by
    :func:`~kimap.bits.hash2_layout`: ``sigma_term``, the length-prefixed,
    shifted left operand ``k' || x`` of ``sigma``; ``session_term``, the
    shifted right operand ``k' || x'`` (the session key) of ``sigma'``; and
    ``next_term``, the length-prefixed, shifted left operand ``k'' || x''``
    of the key update. Not kept: ``x`` (``delta XOR key`` gives it back),
    the spec (the session's) and the width (the key's, and so ``x``'s and
    the master's). Built by :func:`slot_keys`."""

    label: str
    slot: str
    counter: int
    key: BitString
    delta: int
    sigma_term: int
    session_term: int
    next_term: int

    def next_key(self, ops: "SessionOperands") -> BitString:
        """The key the server commits if this slot's candidate is matched in
        the session ``ops``: ``H(k'' || x'', x_s)``, the digest of
        :func:`key_update`, from this slot's term ORed with the session's.
        One hash per call, paid only by the matched candidate and hedging."""
        if ops.x_s._length != self.key._length:
            raise _mismatch(self.key, ops.x_s)
        return _trusted(hash2(ops.spec, self.next_term | ops.s_term, ops.next_bytes), len(self.key))

    def __deepcopy__(self, memo: dict) -> "SlotKeys":
        return self  # every field is immutable


@dataclass
class ServerState:
    # The master secret SK*, as wide as the keys. Server-only: never
    # serialized into tag state or wire messages; only the partial key
    # H_i(SK*, k) consumes it (partial_key, slot_keys).
    master: BitString
    records: dict[str, ServerTagRecord]
    prng: Prng
    # (spec, master) -> the current- and previous-slot maps, label ->
    # SlotKeys, built under that spec and master. An entry is served only
    # while its record's counter and the very key object it was built from
    # are unchanged, so a record mutated directly never reads a stale one.
    # Never persisted.
    slot_cache: dict[tuple, tuple[dict, dict]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @property
    def lam(self) -> int:
        return len(self.master)


@dataclass(frozen=True)
class Challenge:
    x_s: BitString


@dataclass(frozen=True)
class TagNonce:
    x_t: BitString


# Build a NamedTuple (SlotKeys, BroadcastAuth) from a tuple at C level,
# without its generated Python __new__.
_new_tuple = tuple.__new__


class BroadcastAuth(NamedTuple):
    """Flight 3 as the wire carries it: each candidate's ``sigma`` and
    ``delta`` as ints, in broadcast order, each as wide as the keys, a width
    the session states and the broadcast does not. :func:`make_candidate`
    builds it from its digests."""

    sigmas: tuple[int, ...]
    deltas: tuple[int, ...]

    @property
    def candidates(self) -> tuple[int, ...]:
        """One entry per candidate, for ``len()``: the benchmark's tag meter
        (``perfbench/spans.py``) counts the candidates scanned with it, and
        is its only reader. ROADMAP item 16 deletes it."""
        return self.sigmas


@dataclass(frozen=True)
class TagAuth:
    sigma_prime: BitString


@dataclass(frozen=True, slots=True)
class SessionOperands:
    """One session: the hash ``spec`` of all its digests, and its message
    operands, encoded once by :func:`~kimap.bits.hash2_layout`: ``s_t_term``
    is the shifted right operand ``x_s || x_t`` of every ``sigma``,
    ``t_s_term`` the length-prefixed, shifted left operand ``x_t || x_s`` of
    every expected ``sigma'``, and ``s_term`` the shifted right operand
    ``x_s`` of every key update; ``sigma_bytes``, ``sigma_prime_bytes`` and
    ``next_bytes`` are the three inputs' byte counts. Its width is ``x_s``'s,
    to which :func:`session_operands` held ``x_t``."""

    spec: HashSpec
    x_s: BitString
    s_t_term: int
    t_s_term: int
    s_term: int
    sigma_bytes: int
    sigma_prime_bytes: int
    next_bytes: int


@dataclass(frozen=True)
class PendingSession:
    """Server-side bookkeeping for one in-flight session ``ops``, in
    broadcast order: ``candidates`` holds the slot, as wide as the session,
    each broadcast candidate came from, and ``expected`` each candidate's
    expected ``sigma'`` as an int. Built only by :func:`make_candidate`;
    discarded after finalize/timeout; never persisted."""

    ops: SessionOperands
    candidates: tuple[SlotKeys, ...]
    expected: tuple[int, ...]


@dataclass(frozen=True)
class AuthResult:
    accepted: bool
    label: Optional[str] = None
    matched_slot: Optional[str] = None

    @property
    def outcome(self) -> str:
        return f"accepted({self.label})" if self.accepted else "rejected"


# ---------------------------------------------------------------------------
# The algorithm suite.
# ---------------------------------------------------------------------------

def check_key_width(lam: int) -> None:
    """The one key-width rule: keys and partial keys split into equal
    halves, so a width is even, and at least 8 bits."""
    if lam < 8 or lam % 2:
        raise ParameterError(f"key width must be even and >= 8, got {lam}")


def keygen(lam: int, n: int, prng: Prng) -> tuple[ServerState, list[TagState]]:
    """Provision a server and ``n`` tags, labelled ``t001``, ``t002``, ...

    Draw order (fixed, relied on by the known-answer fixtures): master key,
    each tag's initial key in label order, then a 64-bit base for the
    per-entity child streams (server is stream 0, tag ``l`` is stream 1+l).
    """
    check_key_width(lam)
    if n < 1:
        raise ParameterError("need at least one tag")

    master = prng_next(prng, lam)
    initial_keys = [prng_next(prng, lam) for _ in range(n)]
    stream_base = prng_next(prng, 64).value

    labels = [f"t{j:03d}" for j in range(1, n + 1)]
    records = {
        label: ServerTagRecord(key_current=key, key_previous=None, counter=1)
        for label, key in zip(labels, initial_keys)
    }
    server = ServerState(master=master, records=records, prng=Prng(stream_base, 0))
    tags = [
        TagState(key=key, counter=1, prng=Prng(stream_base, 1 + idx))
        for idx, key in enumerate(initial_keys)
    ]
    return server, tags


def partial_key(spec: HashSpec, i: int, sk_star: BitString, k: BitString) -> BitString:
    """Session ``i`` partial key ``x_i = H_i(SK*, k_i)``. Only a holder of
    the master secret can produce it."""
    return counter_hash(spec, i, sk_star, k)


def session_key(k_prime: BitString, x_prime: BitString) -> BitString:
    """Session key ``sk = k' || x'`` from the two left halves."""
    if len(k_prime) != len(x_prime):
        raise _mismatch(k_prime, x_prime)
    return k_prime + x_prime


def key_update(spec: HashSpec, k_dprime: BitString, x_dprime: BitString, x_s: BitString) -> BitString:
    """Next key ``k_{i+1} = H(k'' || x'', x_s)`` from the two right halves
    and the session challenge."""
    if len(k_dprime) != len(x_dprime) or len(x_s) != 2 * len(k_dprime):
        raise _mismatch(k_dprime, x_dprime, x_s)
    return hash2(spec, k_dprime + x_dprime, x_s)


def auth_server_tag(spec: HashSpec, k_prime: BitString, x: BitString, x_s: BitString, x_t: BitString) -> BitString:
    """Server authenticator ``sigma = H(k' || x, x_s || x_t)``."""
    if not (2 * len(k_prime) == len(x) == len(x_s) == len(x_t)):
        raise _mismatch(k_prime, x, x_s, x_t)
    return hash2(spec, k_prime + x, x_s + x_t)


def auth_tag_msg(spec: HashSpec, x_t: BitString, x_s: BitString, sk: BitString) -> BitString:
    """Tag authenticator ``sigma' = H(x_t || x_s, sk)``."""
    if not (len(x_t) == len(x_s) == len(sk)):
        raise _mismatch(x_t, x_s, sk)
    return hash2(spec, x_t + x_s, sk)


# ---------------------------------------------------------------------------
# Session state machines.
# ---------------------------------------------------------------------------

def server_begin(server: ServerState) -> Challenge:
    """Flight 1: fresh random challenge."""
    return Challenge(prng_next(server.prng, server.lam))


def tag_respond_nonce(tag: TagState) -> TagNonce:
    """Flight 2: fresh random nonce, buffered until flight 4. The challenge
    is not buffered: flight 4 is handed the one the tag received."""
    with metered(tag.meter):
        x_t = prng_next(tag.prng, len(tag.key))
    tag.pending = x_t
    return TagNonce(x_t)


@lru_cache(maxsize=64)
def _layouts(width: int) -> tuple[tuple[int, int, int, int], ...]:
    """The :func:`~kimap.bits.hash2_layout` of the three hashes of a slot's
    key for keys of ``width`` bits: ``sigma = H(k' || x, x_s || x_t)``,
    ``sigma' = H(x_t || x_s, k' || x')`` and the next key ``H(k'' || x'',
    x_s)``."""
    return (hash2_layout(width + width // 2, 2 * width), hash2_layout(2 * width, width),
            hash2_layout(width, width))


def slot_keys(spec: HashSpec, master: BitString, label: str, slot: str, counter: int,
              key: BitString) -> SlotKeys:
    """The :class:`SlotKeys` of ``key``, held in ``slot`` of the record of
    ``label`` at session ``counter``, under ``spec``: one hash and one XOR.
    It reads no record. The key must be of even width, as wide as ``master``
    and as the hash's output. The halves ``k'``, ``k''``, ``x'`` and ``x''``
    are taken from the ints, so the terms hold the values
    :func:`partial_key`, :func:`session_key` and :func:`key_update` take."""
    width = key._length
    if width % 2:
        raise LengthError(f"cannot split odd length {width}")
    x = counter_hash(spec, counter, master, key)
    if x._length != width or master._length != width:
        raise _mismatch(key, master, x)
    half = width >> 1
    low = (1 << half) - 1
    k, xv = key._value, x._value
    k_prime = k >> half
    (base, shift, _, _), (_, _, sk_shift, _), (next_base, next_shift, _, _) = _layouts(width)
    return _new_tuple(SlotKeys, (
        label, slot, counter, key, xor(key, x)._value,
        base | (k_prime << width | xv) << shift,
        (k_prime << half | xv >> half) << sk_shift,
        next_base | ((k & low) << half | xv & low) << next_shift))


def session_operands(spec: HashSpec, x_s: BitString, x_t: BitString) -> SessionOperands:
    """The session :class:`SessionOperands` under ``spec``, after the one
    width check its operands need: ``x_s`` and ``x_t`` are equally wide."""
    width = len(x_s)
    if len(x_t) != width:
        raise _mismatch(x_s, x_t)
    ((_, _, st_shift, sigma_bytes), (base, ts_shift, _, sigma_prime_bytes),
     (_, _, s_shift, next_bytes)) = _layouts(width)
    s, t = x_s.value, x_t.value
    return SessionOperands(spec, x_s, (s << width | t) << st_shift,
                           base | (t << width | s) << ts_shift, s << s_shift,
                           sigma_bytes, sigma_prime_bytes, next_bytes)


def make_candidate(slots: Sequence[SlotKeys],
                   ops: SessionOperands) -> tuple[BroadcastAuth, PendingSession]:
    """Flight 3 of the session ``ops`` over ``slots``, two hashes each, in
    their order: the broadcast of each slot's ``sigma`` and cached
    ``delta``, and the :class:`PendingSession` of each slot and its expected
    ``sigma'``. Each slot is held to the session's width, and must have been
    built under ``ops.spec``, as the slot cache's ``(spec, master)`` key
    ensures. The digests, those of :func:`auth_server_tag` and
    :func:`auth_tag_msg`, are hashed from one slot term ORed with one
    session term and stay ints; the next key is computed on demand
    (:meth:`SlotKeys.next_key`)."""
    spec, x_s, s_t, t_s = ops.spec, ops.x_s, ops.s_t_term, ops.t_s_term
    width = x_s._length
    sigma_bytes, sigma_prime_bytes = ops.sigma_bytes, ops.sigma_prime_bytes
    sigmas: list[int] = []
    deltas: list[int] = []
    expected: list[int] = []
    for keys in slots:
        if keys.key._length != width:
            raise _mismatch(keys.key, x_s)
        sigmas.append(hash2(spec, keys.sigma_term | s_t, sigma_bytes))
        deltas.append(keys.delta)
        expected.append(hash2(spec, t_s | keys.session_term, sigma_prime_bytes))
    return (_new_tuple(BroadcastAuth, (tuple(sigmas), tuple(deltas))),
            PendingSession(ops, tuple(slots), tuple(expected)))


def offered_slots(server: ServerState, spec: HashSpec) -> list[SlotKeys]:
    """Every (record, key slot) that the next broadcast under ``spec``
    offers, in record order: the record's current slot, then its previous
    slot when one is set. An exhausted record, one whose next counter would
    not fit :data:`COUNTER_BITS`, offers none. This is the one statement of
    which keys the server offers: :func:`server_prepare` broadcasts exactly
    these slots, and :meth:`~kimap.channel.World.whereabouts` finds each
    tag's key among them. Slots are served from ``server.slot_cache`` as
    :class:`ServerState` states; one built afresh is held to the master's
    width (:func:`slot_keys`)."""
    master = server.master
    current, previous = server.slot_cache.setdefault((spec, master), ({}, {}))
    slots: list[SlotKeys] = []
    for label, rec in server.records.items():
        counter = rec.counter
        if (counter + 1) >> COUNTER_BITS:
            continue
        keys = current.get(label)
        if keys is None or keys.counter != counter or keys.key is not rec.key_current:
            keys = current[label] = slot_keys(spec, master, label, "current", counter,
                                              rec.key_current)
        slots.append(keys)
        key = rec.key_previous
        if key is not None:
            keys = previous.get(label)
            if keys is None or keys.counter != counter or keys.key is not key:
                keys = previous[label] = slot_keys(spec, master, label, "previous", counter, key)
            slots.append(keys)
    return slots


def slot_origin(server: ServerState, keys: SlotKeys) -> str:
    """What put the key of ``keys``, a slot that :func:`offered_slots`
    offers, where it is: ``"current"`` for a current slot; for a previous
    slot, ``"accept-left"`` when the record's own accept left it there (no
    session has failed since), or ``"parked"`` when a failed session's hedge
    parked it. kimapdb v1 keeps no failure count, so a parked key read back
    from a database reads as accept-left."""
    if keys.slot == "current":
        return "current"
    return "parked" if server.records[keys.label].consecutive_failures else "accept-left"


def server_prepare(server: ServerState, x_s: BitString, x_t: BitString, spec: HashSpec) -> tuple[BroadcastAuth, PendingSession]:
    """Flight 3: one candidate per slot of :func:`offered_slots`, shuffled
    so broadcast position leaks nothing about registry order. The session,
    and each slot as it is built, is held to the master's width before the
    shuffle, so one of another width raises with the server's PRNG unmoved;
    one :func:`make_candidate` call then builds the broadcast and the
    pending session returned."""
    ops = session_operands(spec, x_s, x_t)
    if len(x_s) != server.lam:
        raise _mismatch(server.master, x_s, x_t)
    slots = offered_slots(server, spec)
    server.prng.shuffle(slots)
    return make_candidate(slots, ops)


def tag_verify_and_respond(tag: TagState, x_s: BitString, broadcast: BroadcastAuth, spec: HashSpec) -> TagAuth:
    """Flight 4: authenticate the server, then answer.

    On a verified candidate: derive the session key, emit ``sigma'``,
    ratchet the tag key, bump the counter. On no match: emit fresh random
    bits of the same width and keep the key, so success and failure are
    indistinguishable on the wire. Every candidate is checked, so the hash
    count does not depend on where (or whether) a match sits. A hash of
    another width than the key, unequal columns or a ``delta`` that does not
    fit the key raise :class:`~kimap.bits.LengthError` before the first
    hash, with the nonce pending; a ``sigma`` wider than the key verifies
    nothing.
    """
    if tag.pending is None:
        raise SessionOrderError("no session in flight on this tag")
    x_t = tag.pending
    with metered(tag.meter):
        ops = session_operands(spec, x_s, x_t)
        key = tag.key
        width = x_s._length
        if len(key) != width:
            raise _mismatch(key, x_s, x_t)
        if spec.output_len_bits != width:
            raise LengthError(f"hash {spec.output_len_bits}, key {width} bits")
        sigmas, deltas = broadcast
        if len(sigmas) != len(deltas):
            raise LengthError(f"broadcast has {len(sigmas)} sigma and {len(deltas)} delta values")
        if deltas and (max(deltas) >> width or min(deltas) < 0):
            raise LengthError(f"a delta does not fit in {width} bits")
        k_prime, k_dprime = split(key)
        # sigma's input for a candidate is base | x_hat << shift: the slot
        # term of k' || x_hat without x_hat, ORed with the session's term.
        (base, shift, _, _), (_, _, sk_shift, _), _ = _layouts(width)
        base |= k_prime.value << (shift + width) | ops.s_t_term
        nbytes, k = ops.sigma_bytes, key.value
        matched: Optional[int] = None
        for sigma, delta in zip(sigmas, deltas):
            x_hat = delta ^ k
            if hash2(spec, base | x_hat << shift, nbytes) == sigma and matched is None:
                matched = x_hat
        # Each candidate's delta XOR k is one metered XOR, as xor() counts it.
        tag.meter.xor_calls += len(deltas)
        if matched is None:
            sigma_prime = prng_next(tag.prng, width)
            tag.pending = None
            return TagAuth(sigma_prime)
        x_prime, x_dprime = split(_trusted(matched, width))
        sk_term = session_key(k_prime, x_prime).value << sk_shift
        sigma_prime = _trusted(hash2(spec, ops.t_s_term | sk_term, ops.sigma_prime_bytes), width)
        tag.key = key_update(spec, k_dprime, x_dprime, x_s)
    tag.counter += 1
    tag.pending = None
    return TagAuth(sigma_prime)


def server_finalize(server: ServerState, pending: PendingSession, ta: TagAuth) -> AuthResult:
    """Flight-4 receipt: identify the tag by its authenticator.

    Exactly one candidate expectation must match; ties fail closed (an
    expectation collision at real widths is an attack or a bug). On a match
    the record commits: previous slot takes the matched key, current takes
    the candidate's next key. Anything else is a rejection, which fails as
    a missing flight 4 does: through :func:`server_timeout`, which hedges.
    """
    # Every expectation is compared as an int; a sole match is then held
    # to the session's width.
    want, ops = ta.sigma_prime, pending.ops
    if pending.expected.count(want.value) == 1:
        keys = pending.candidates[pending.expected.index(want.value)]
        if len(want) == ops.x_s._length:
            rec = server.records[keys.label]
            if keys.slot == "current":
                rec.key_previous = rec.key_current
            rec.key_current = keys.next_key(ops)
            rec.counter += 1
            rec.consecutive_failures = 0
            return AuthResult(accepted=True, label=keys.label, matched_slot=keys.slot)
    return server_timeout(server, pending)


def server_timeout(server: ServerState, pending: PendingSession) -> AuthResult:
    """A failed session: flight 4 never arrived, or :func:`server_finalize`
    rejected it. A failed session is anonymous: the tag may have ratcheted
    (its ``sigma'`` was lost or mangled) or not (it rejected the broadcast).
    So each record's would-be next key is parked in its previous-key slot,
    and both cases can be matched next session. Counted per record: two
    consecutive failures without an accept mean the recovery slot itself was
    lost."""
    ops, records = pending.ops, server.records
    for keys in pending.candidates:
        if keys.slot != "current":
            continue
        rec = records[keys.label]
        rec.key_previous = keys.next_key(ops)
        rec.consecutive_failures += 1
    return AuthResult(accepted=False)
