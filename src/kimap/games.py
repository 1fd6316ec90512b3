"""Mechanized privacy games: oracles, distinguishers, and advantage estimation.

Each game runs against a live world (one server, ``n`` tags) and is given
in :data:`DEFINITIONS` by the oracles it admits and the instance it tests:

* ``ind`` -- can the adversary tell a tag's real session transcript from
  uniform random values of the same shape?
* ``forward`` -- after revealing a tag's current key, can it tell the
  *previous* instance's transcript from random?
* ``backward`` -- after revealing the key while being denied the challenge
  values that drive key updates, can it tell the *next* instance's
  transcript from random?
* ``ind2tag`` -- the two-tag variant: the test material comes from one of
  two challenge tags and the adversary guesses which.

A definition's ``challenge_tags`` column gives the game's shape: one
challenge tag, or a pair. The adversary is a :class:`Distinguisher` that
touches the world only through an :class:`OracleHandle`, whose every oracle
is admitted by the definition and budgeted by :class:`GameConfig`. The
``*_b`` oracles model the restricted view in which the server's true
challenge is consumed internally but withheld from the adversary (a decoy
``x_rand`` is shown instead): ``execute_b`` returns the same
:class:`~kimap.channel.SessionTranscript` as ``execute``, with the decoy as
its delivered flight 1 and the server's outcome withheld (``outcome_server``
is ``None``). The adversary fixes the challenge once, with as many distinct
tags as the column says (``choose_challenge(a)``, or
``choose_challenge(a, b)`` in a two-tag game). ``test`` (``test_pair`` in a
two-tag game) may be called once per world: it flips a coin and returns
either the real recorded instance or uniform bitstrings of identical shape
(in a two-tag game, one of the two tags' instances).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .bits import BitString, HashSpec, ParameterError, Prng, _trusted, prng_next, split, xor
from .channel import SessionTranscript
from .protocol import (
    BroadcastAuth,
    Challenge,
    PendingSession,
    ServerState,
    SessionOrderError,
    TagAuth,
    TagState,
    _new_tuple,
    auth_server_tag,
    key_update,
    keygen,
    make_candidate,
    server_begin,
    server_finalize,
    session_operands,
    slot_keys,
    tag_respond_nonce,
    tag_verify_and_respond,
)


class GameError(Exception):
    pass


class BudgetExceededError(GameError):
    pass


class OracleMisuseError(GameError):
    """An oracle was called outside the active definition's allowed set or
    against the game's phase rules, a second test included."""


class Definition(NamedTuple):
    oracles: frozenset[str]
    test_offset: int  # test(tag, period) returns the instance at period + offset
    challenge_tags: int  # tags in the challenge: 1, or 2 for test_pair


_PLAIN = frozenset({"query_s", "query_t", "reply", "reply_prime", "execute", "test"})

# The game definitions; their order fixes each one's PRNG streams. The
# backward game admits plain execute as well: its stated adversary boundary
# counts execute queries, and the leak-control arm of the restriction
# experiment needs them.
DEFINITIONS = {
    "ind": Definition(_PLAIN, 0, 1),
    "forward": Definition(_PLAIN | {"reveal_secret"}, -1, 1),
    "backward": Definition(frozenset({"query_b", "query_t", "reply", "reply_b", "execute",
                                      "execute_b", "reveal_secret", "test"}), +1, 1),
    "ind2tag": Definition(_PLAIN, 0, 2),
}

# The GameConfig budget each counted oracle draws on.
_BUDGET = {"query_s": "r1", "reply": "r1", "query_t": "r2", "reply_prime": "r2",
           "query_b": "rb", "reply_b": "rb", "execute": "e1", "execute_b": "e2"}


@dataclass(frozen=True)
class GameConfig:
    lam: int
    n: int
    e1: int = 16
    e2: int = 16
    r1: int = 64
    r2: int = 64
    rb: int = 64
    trials: int = 1000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1 or self.trials < 1:
            raise ParameterError("need n >= 1 and trials >= 1")
        if min(self.e1, self.e2, self.r1, self.r2, self.rb) < 0:
            raise ParameterError("budgets must be >= 0")


class Quintuplet(NamedTuple):
    """One completed instance as recorded inside the world (the true
    challenge included, whether or not the adversary saw it), its five
    fields in wire order."""

    x_s: BitString
    sigma: BitString
    delta: BitString
    x_t: BitString
    sigma_prime: BitString


class OracleHandle:
    """The adversary's sole access to a game world."""

    def __init__(self, server: ServerState, tags: list[TagState], spec: HashSpec,
                 cfg: GameConfig, definition: str, aux_prng: Prng):
        self.server = server
        self.tags = tags
        self.spec = spec
        self.cfg = cfg
        self.definition = definition
        self.aux = aux_prng
        self.counters: dict[str, int] = {}
        self.coin: Optional[int] = None  # the test's coin, once test is used
        self.challenge: tuple[int, ...] = ()
        self.revealed: list[int] = []  # the period of every revealed key
        self.recorded: dict[int, dict[int, Quintuplet]] = {i: {} for i in range(len(tags))}
        self._pending_x_s: Optional[BitString] = None
        self._pending_reply: dict[int, PendingSession] = {}
        self._labels = list(server.records)

    # -- bookkeeping -------------------------------------------------------

    @property
    def n_tags(self) -> int:
        return len(self.tags)

    def choose_challenge(self, *tags: int) -> None:
        """Fixes the challenge once: as many distinct tags as the game's
        ``challenge_tags``."""
        if self.challenge:
            raise OracleMisuseError("challenge already chosen")
        self._check_shape(tags)
        for tag in tags:
            self._check_tag(tag)
        if len(set(tags)) != len(tags):
            raise OracleMisuseError("challenge tags must be distinct")
        self.challenge = tags

    def _check_shape(self, tags: tuple[int, ...]) -> None:
        want = DEFINITIONS[self.definition].challenge_tags
        if len(tags) != want:
            raise OracleMisuseError(f"the {self.definition} game takes {want} challenge "
                                    f"tag(s), got {len(tags)}")

    def _check_tag(self, tag: int) -> None:
        if not 0 <= tag < len(self.tags):
            raise OracleMisuseError(f"no tag {tag}")

    def _admit(self, oracle: str, *tags: int) -> None:
        """Every oracle's admission: in the definition's set, then within
        its budget (spent even when a tag check then fails), then the named
        tags exist."""
        if oracle not in DEFINITIONS[self.definition].oracles:
            raise OracleMisuseError(f"{oracle} is not in the {self.definition} game's oracle set")
        if oracle in _BUDGET:
            limit = getattr(self.cfg, _BUDGET[oracle])
            used = self.counters.get(oracle, 0)
            if used >= limit:
                raise BudgetExceededError(f"{oracle} budget of {limit} exhausted")
            self.counters[oracle] = used + 1
        for tag in tags:
            self._check_tag(tag)

    # -- session steps (unbudgeted; composed by the oracles) -----------------

    def _begin(self, decoy: bool) -> tuple[BitString, Optional[BitString]]:
        """Draws the true challenge, kept pending inside the world, then a
        decoy ``x_rand`` if asked."""
        self._pending_x_s = server_begin(self.server).x_s
        return self._pending_x_s, server_begin(self.server).x_s if decoy else None

    def _reply_core(self, tag: int, x_t: BitString) -> BroadcastAuth:
        if self._pending_x_s is None:
            raise SessionOrderError("reply needs a pending server challenge")
        x_s, self._pending_x_s = self._pending_x_s, None
        label = self._labels[tag]
        keys = slot_keys(self.spec, self.server.master, label, self.server.records[label],
                         "current")
        bc, self._pending_reply[tag] = make_candidate((keys,), session_operands(self.spec, x_s, x_t))
        return bc

    def _reply_prime_core(self, tag: int, x_s: BitString,
                          bc: BroadcastAuth) -> tuple[TagAuth, bool, Optional[object]]:
        """The tag's flight 4 to the one-candidate broadcast ``bc``."""
        state = self.tags[tag]
        if state.pending is None:
            raise SessionOrderError("reply' needs a pending tag nonce")
        x_t = state.pending
        period = state.counter
        ta = tag_verify_and_respond(state, x_s, bc, self.spec)
        updated = state.counter != period
        pend = self._pending_reply.pop(tag, None)
        outcome = server_finalize(self.server, pend, ta) if pend is not None else None
        if updated:
            self.recorded[tag][period] = _new_tuple(Quintuplet, (
                x_s, _trusted(bc.sigmas[0], bc.sigma_bits), _trusted(bc.deltas[0], bc.delta_bits),
                x_t, ta.sigma_prime))
        return ta, updated, outcome

    def _eavesdrop(self, tag: int, restricted: bool) -> SessionTranscript:
        """One full honest session on the named tag. The restricted view
        delivers a decoy drawn right after the true challenge as flight 1,
        and withholds the server's outcome."""
        period = self.tags[tag].counter
        x_s, x_rand = self._begin(decoy=restricted)
        nonce = tag_respond_nonce(self.tags[tag])
        bc = self._reply_core(tag, nonce.x_t)
        ta, updated, outcome = self._reply_prime_core(tag, x_s, bc)
        return SessionTranscript(
            session_seq=period, label=self._labels[tag],
            x_s=Challenge(x_rand if restricted else x_s), x_t=nonce, broadcast=bc,
            sigma_prime=ta, tag_updated=updated, outcome_server=None if restricted else outcome)

    # -- public oracles ------------------------------------------------------

    def query_s(self) -> BitString:
        """Fresh server challenge for the current period."""
        self._admit("query_s")
        return self._begin(decoy=False)[0]

    def query_t(self, tag: int) -> BitString:
        """Fresh nonce from the named tag."""
        self._admit("query_t", tag)
        return tag_respond_nonce(self.tags[tag]).x_t

    def query_b(self) -> BitString:
        """Starts a session whose true challenge stays inside the world;
        the adversary only gets a decoy."""
        self._admit("query_b")
        return self._begin(decoy=True)[1]

    def reply(self, tag: int, x_t: BitString) -> tuple[BitString, BitString]:
        """Server flight-3 computation for the named tag's current key."""
        self._admit("reply", tag)
        sigma_bits, delta_bits, (sigma,), (delta,) = self._reply_core(tag, x_t)
        return _trusted(sigma, sigma_bits), _trusted(delta, delta_bits)

    def reply_prime(self, tag: int, x_s: BitString, sigma: BitString, delta: BitString) -> BitString:
        """Tag flight-4 computation (verify, answer, ratchet on success);
        the answer is forwarded to the server."""
        self._admit("reply_prime", tag)
        bc = BroadcastAuth(len(sigma), len(delta), (sigma.value,), (delta.value,))
        return self._reply_prime_core(tag, x_s, bc)[0].sigma_prime

    def reply_b(self, tag: int, x_rand: BitString, sigma: BitString, delta: BitString) -> BitString:
        """Like reply_prime, but the tag is fed the session's hidden true
        challenge; ``x_rand`` is only the adversary's view of flight 1."""
        self._admit("reply_b", tag)
        pend = self._pending_reply.get(tag)
        if pend is None:
            raise SessionOrderError("reply_b needs a pending restricted session")
        bc = BroadcastAuth(len(sigma), len(delta), (sigma.value,), (delta.value,))
        return self._reply_prime_core(tag, pend.ops.x_s, bc)[0].sigma_prime

    def execute(self, tag: int) -> SessionTranscript:
        """Eavesdrop one full honest session."""
        self._admit("execute", tag)
        return self._eavesdrop(tag, restricted=False)

    def execute_b(self, tag: int) -> SessionTranscript:
        """Eavesdrop one honest session except the true challenge, whose
        decoy is the delivered flight 1, and the server's outcome: the world
        still performs the real key update internally."""
        self._admit("execute_b", tag)
        return self._eavesdrop(tag, restricted=True)

    def reveal_secret(self, tag: int) -> BitString:
        """The named tag's current key. Allowed on the challenge tag only; the
        key's period bounds the instance ``test`` may target."""
        self._admit("reveal_secret", tag)
        if not self.challenge:
            raise OracleMisuseError("choose a challenge tag before revealing")
        if (tag,) != self.challenge:
            raise OracleMisuseError("reveal_secret is allowed on the challenge tag only")
        self.revealed.append(self.tags[tag].counter)
        return self.tags[tag].key

    def test(self, tag: int, period: int) -> Quintuplet:
        """Single-use challenge: returns the real instance at the game's
        period offset, or five uniform strings of identical shape."""
        return self._test((tag,), period)

    def test_pair(self, tag_a: int, tag_b: int, period: int) -> Quintuplet:
        """Two-tag variant: the material is one challenge tag's real
        instance; the adversary guesses which tag produced it."""
        return self._test((tag_a, tag_b), period)

    def _test(self, tags: tuple[int, ...], period: int) -> Quintuplet:
        """Single use, admission, the game's shape, the reveal bound, then the
        coin: a pair's coin picks a tag; a single tag's picks real (1) or
        uniform (0). The reveal bound: the target lies strictly on the
        ``test_offset`` side of every revealed period, before it in
        ``forward`` and after it in ``backward``, so no revealed key binds it."""
        if self.coin is not None:
            raise OracleMisuseError("test may be called only once")
        self._admit("test")
        self._check_shape(tags)
        if tags != self.challenge:
            raise OracleMisuseError("test must target the chosen challenge")
        offset = DEFINITIONS[self.definition].test_offset
        target, side = period + offset, "before" if offset < 0 else "after"
        for revealed in self.revealed:
            if (target - revealed) * offset <= 0:
                raise OracleMisuseError(f"instance {target} is not {side} "
                                        f"revealed period {revealed}")
        quints = [self.recorded[tag].get(target) for tag in tags]
        for tag, quint in zip(tags, quints):
            if quint is None:
                raise OracleMisuseError(f"instance {target} of tag {tag} was never materialized")
        coin = self.coin = prng_next(self.aux, 1).value
        if len(quints) > 1:
            return quints[coin]
        if coin == 1:
            return quints[0]
        return Quintuplet(*(prng_next(self.aux, len(f)) for f in quints[0]))


# ---------------------------------------------------------------------------
# Distinguishers.
# ---------------------------------------------------------------------------

class Distinguisher:
    """A strategy: ``interact`` drives the oracles through the learning and
    challenge phases (and must call ``test`` exactly once); ``guess``
    returns the bit."""

    name = "abstract"

    def reset(self, prng: Prng) -> None:
        self.prng = prng

    def interact(self, oracles: OracleHandle) -> None:
        raise NotImplementedError

    def guess(self) -> int:
        raise NotImplementedError


class RandomGuess(Distinguisher):
    """Null strategy for calibration: drives the phases, ignores everything,
    flips its own coin."""

    name = "random-guess"

    def interact(self, h: OracleHandle) -> None:
        # One session per tag, the challenge tags last, eavesdropped with the
        # restricted flavor where the game admits it. The tested instance is
        # each challenge tag's first, so a nonzero offset plays more sessions.
        d = DEFINITIONS[h.definition]
        flavor = h.execute_b if "execute_b" in d.oracles else h.execute
        challenge = tuple(range(h.n_tags - d.challenge_tags, h.n_tags))
        h.choose_challenge(*challenge)
        for t in range(h.n_tags):
            flavor(t)
        for t in challenge:
            for _ in range(abs(d.test_offset)):
                flavor(t)
        (h.test if len(challenge) == 1 else h.test_pair)(*challenge, 1 - d.test_offset)

    def guess(self) -> int:
        return prng_next(self.prng, 1).value


class KeyKnowledge(Distinguisher):
    """Traces a tag through its revealed key.

    Reveal the challenge tag's key, evolve it forward through every
    subsequently observed transcript whose challenge is visible, then check
    whether the test material is consistent with the evolved key (the
    server-authenticator recomputes under it). Consistent means "this is the
    tag's real instance".

    With restricted eavesdrops the update-driving challenge is missing, the
    key cannot be evolved, and the check degenerates to chance. The leaky
    variant substitutes full eavesdrops and wins outright, demonstrating
    that withholding the challenge is what buys backward security.
    """

    def __init__(self, leaky: bool = False):
        self.leaky = leaky
        self.name = "key-knowledge-leaky" if leaky else "key-knowledge"
        self.match = False

    def _eavesdrop(self, h: OracleHandle, tag: int) -> tuple[Optional[BitString], BitString]:
        """Observes one session: (its challenge, or None if withheld; delta)."""
        restricted = "execute_b" in DEFINITIONS[h.definition].oracles and not self.leaky
        t = h.execute_b(tag) if restricted else h.execute(tag)
        bc = t.broadcast
        return None if restricted else t.x_s.x_s, _trusted(bc.deltas[0], bc.delta_bits)

    @staticmethod
    def _evolve(spec: HashSpec, key: BitString, x_s: Optional[BitString],
                delta: BitString) -> BitString:
        if x_s is None:
            return key  # update computation is blocked without the challenge
        x = xor(delta, key)
        _, k_dprime = split(key)
        _, x_dprime = split(x)
        return key_update(spec, k_dprime, x_dprime, x_s)

    @staticmethod
    def _consistent(spec: HashSpec, key: BitString, material: Quintuplet) -> bool:
        x_hat = xor(material.delta, key)
        k_prime, _ = split(key)
        sigma_hat = auth_server_tag(spec, k_prime, x_hat, material.x_s, material.x_t)
        return sigma_hat == material.sigma

    def interact(self, h: OracleHandle) -> None:
        self.match = False
        d = DEFINITIONS[h.definition]
        if "reveal_secret" not in d.oracles:
            raise OracleMisuseError("key-knowledge needs a reveal oracle; run it on the "
                                    "forward or backward game")
        c = h.n_tags - 1
        for t in range(c):
            self._eavesdrop(h, t)
        h.choose_challenge(c)
        self._eavesdrop(h, c)                       # instance 1
        if d.test_offset > 0:
            key = h.reveal_secret(c)                # key of period 2
            seen = self._eavesdrop(h, c)            # instance 2
            key = self._evolve(h.spec, key, *seen)
            self._eavesdrop(h, c)                   # instance 3, the tested one
            material = h.test(c, 2)
        else:
            self._eavesdrop(h, c)                   # instance 2, the tested one
            key = h.reveal_secret(c)                # key of period 3
            material = h.test(c, 3)
        self.match = self._consistent(h.spec, key, material)

    def guess(self) -> int:
        return 1 if self.match else 0


DISTINGUISHERS = {
    "random-guess": RandomGuess,
    "key-knowledge": lambda: KeyKnowledge(leaky=False),
    "key-knowledge-leaky": lambda: KeyKnowledge(leaky=True),
}


def make_distinguisher(name: str) -> Distinguisher:
    try:
        factory = DISTINGUISHERS[name]
    except KeyError:
        raise ParameterError(f"unknown distinguisher {name!r} "
                             f"(have: {', '.join(sorted(DISTINGUISHERS))})") from None
    return factory()


# ---------------------------------------------------------------------------
# Running games.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GameResult:
    definition: str
    distinguisher: str
    cfg: GameConfig
    wins: int
    trials: int

    @property
    def win_rate(self) -> float:
        return self.wins / self.trials

    @property
    def advantage(self) -> float:
        return abs(self.win_rate - 0.5)

    @property
    def ci95(self) -> float:
        return wilson_halfwidth(self.wins, self.trials)

    def to_line(self) -> str:
        c = self.cfg
        return (f"gameresult definition={self.definition} distinguisher={self.distinguisher} "
                f"lambda={c.lam} n={c.n} e1={c.e1} e2={c.e2} r1={c.r1} r2={c.r2} rb={c.rb} "
                f"trials={self.trials} wins={self.wins} advantage={self.advantage:.6f} "
                f"ci95={self.ci95:.6f} seed={c.seed}")


# The standard normal's 97.5 % quantile: the two-sided 95 % interval's z.
_Z95 = 1.959964


def wilson_halfwidth(wins: int, trials: int) -> float:
    """Half-width of the 95% Wilson score interval for the win rate."""
    p = wins / trials
    denom = 1.0 + _Z95 * _Z95 / trials
    return _Z95 * math.sqrt(p * (1.0 - p) / trials + _Z95 * _Z95 / (4.0 * trials * trials)) / denom


# aux/distinguisher PRNG streams live far from the per-trial world streams,
# and differ per definition so repeated games on one seed stay independent
_AUX_STREAM_BASE = 1 << 32
_DIST_STREAM_BASE = 1 << 33
_DEF_STRIDE = 1 << 28


def _stream(base: int, definition: str, trial: int) -> int:
    if definition not in DEFINITIONS:
        raise ParameterError(f"unknown game definition {definition!r} "
                             f"(have: {', '.join(DEFINITIONS)})")
    return base + list(DEFINITIONS).index(definition) * _DEF_STRIDE + trial


def new_world(cfg: GameConfig, definition: str, spec: HashSpec,
              trial: int = 0) -> OracleHandle:
    """One fresh game world, fully determined by (cfg.seed, definition, trial).
    The world holds at least the game's challenge tags."""
    aux = Prng(cfg.seed, _stream(_AUX_STREAM_BASE, definition, trial))
    want = DEFINITIONS[definition].challenge_tags
    if cfg.n < want:
        raise ParameterError(f"the {definition} game takes {want} challenge tag(s), "
                             f"but n is {cfg.n}")
    server, tags = keygen(cfg.lam, cfg.n, Prng(cfg.seed, trial))
    return OracleHandle(server, tags, spec, cfg, definition, aux)


def run_game(definition: str, cfg: GameConfig, d: Distinguisher, spec: HashSpec) -> GameResult:
    """Play ``cfg.trials`` independent worlds and tally the distinguisher's
    correct guesses against the test coin."""
    wins = 0
    for trial in range(cfg.trials):
        handle = new_world(cfg, definition, spec, trial)
        d.reset(Prng(cfg.seed, _stream(_DIST_STREAM_BASE, definition, trial)))
        d.interact(handle)
        if handle.coin is None:
            raise GameError(f"distinguisher {d.name} never called test")
        if d.guess() == handle.coin:
            wins += 1
    return GameResult(definition=definition, distinguisher=d.name, cfg=cfg,
                      wins=wins, trials=cfg.trials)


# ---------------------------------------------------------------------------
# The one-time-pad bijection check.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BijectionReport:
    k: int
    mask: BitString
    distinct_images: int
    bijection: bool
    pairs: Optional[tuple[tuple[int, int], ...]] = None

    def to_line(self) -> str:
        return (f"lemma1 k={self.k} mask={self.mask.to_text()} "
                f"distinct={self.distinct_images}/{2 ** self.k} "
                f"bijection={'yes' if self.bijection else 'no'}")


def lemma1_bijection_check(k: int, mask: Optional[BitString] = None,
                           prng: Optional[Prng] = None) -> BijectionReport:
    """Exhaustively verify that for fixed ``L``, ``y -> L XOR y`` is a
    bijection on k-bit strings (the one-time-pad property behind delta)."""
    if not 1 <= k <= 16:
        raise ParameterError("k must be in 1..16 (the check is exhaustive)")
    if mask is None:
        mask = prng_next(prng if prng is not None else Prng(0, 0), k)
    if len(mask) != k:
        raise ParameterError("mask width must equal k")
    images = {xor(mask, BitString(y, k)).value for y in range(2 ** k)}
    pairs = None
    if k <= 4:
        pairs = tuple((xor(mask, BitString(y, k)).value, y) for y in range(2 ** k))
    return BijectionReport(k=k, mask=mask, distinct_images=len(images),
                        bijection=len(images) == 2 ** k, pairs=pairs)
