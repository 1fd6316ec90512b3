"""Counters and spans around kimap's public functions.

Nothing under ``src/`` is edited. Both classes here wrap a public function by
rebinding its name in every kimap module that imported it (and, for methods,
on the class), so calls made inside the library are caught too.

* :class:`Meters` is always on. It routes the server's work into one
  :class:`~kimap.bits.OpMeter` with :func:`~kimap.bits.metered`, adds the
  tag's own ``tag.meter`` increments into another, and counts candidates
  computed, candidates scanned and candidates matched. Its cost is one
  context-variable switch per server call.
* :class:`Tracer` is switched on only for traced operations. It records one
  span per call (name, start, end, parent span, operation id) in compact
  arrays, and counts the sub-microsecond ``BitString`` helpers without
  timing them.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from typing import Callable

from kimap import bits, channel, cli, games, protocol
from kimap.bits import OpMeter, metered

Patch = tuple[object, str]


class Patcher:
    """Rebinds attributes to wrappers, and back to the originals."""

    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object, object]] = []

    def wrap(self, targets: list[Patch], make: Callable[[Callable], Callable]) -> None:
        """Register ``make(original)`` for every ``obj.name`` in ``targets``
        and rebind it. Targets holding the same function share one wrapper."""
        made: dict[int, Callable] = {}
        for obj, name in targets:
            original = getattr(obj, name)
            if id(original) not in made:
                made[id(original)] = make(original)
            self._patches.append((obj, name, original, made[id(original)]))
            setattr(obj, name, made[id(original)])

    def apply(self) -> None:
        for obj, name, _, wrapper in self._patches:
            setattr(obj, name, wrapper)

    def restore(self) -> None:
        for obj, name, original, _ in reversed(self._patches):
            setattr(obj, name, original)


# ---------------------------------------------------------------------------
# Always-on operation counters.
# ---------------------------------------------------------------------------

SERVER_CALLS: list[Patch] = [
    (channel, "server_prepare"), (channel, "server_finalize"), (channel, "server_timeout"),
    (games, "make_candidate"), (games, "server_finalize"),
]
TAG_CALLS: list[Patch] = [
    (channel, "tag_respond_nonce"), (channel, "tag_verify_and_respond"),
    (games, "tag_respond_nonce"), (games, "tag_verify_and_respond"),
]

# Order of the fields in Meters.snapshot().
METER_FIELDS = ("server_hash", "server_prng", "server_xor", "tag_hash", "tag_prng", "tag_xor",
                "candidates", "scanned", "matched")


class Meters:
    """Exact operation counts for the server and the tags.

    ``candidates`` counts the flight-3 candidates the server computed,
    ``scanned`` the candidates tags checked, and ``matched`` the
    server decisions that accepted a candidate. ``last_tag`` is the tag
    that most recently answered flight 3.
    """

    def __init__(self) -> None:
        self.server = OpMeter()
        self.tag = OpMeter()
        self.candidates = 0
        self.scanned = 0
        self.matched = 0
        self.last_tag = None
        self._patcher = Patcher()

    def snapshot(self) -> tuple[int, ...]:
        return (*self.server.snapshot(), *self.tag.snapshot(),
                self.candidates, self.scanned, self.matched)

    def install(self) -> None:
        self._patcher.wrap(SERVER_CALLS, self._server_wrapper)
        self._patcher.wrap(TAG_CALLS, self._tag_wrapper)

    def uninstall(self) -> None:
        self._patcher.restore()

    def _server_wrapper(self, fn: Callable) -> Callable:
        name = fn.__name__

        def server_call(*args, **kwargs):
            with metered(self.server):
                result = fn(*args, **kwargs)
            if name == "server_prepare":
                self.candidates += len(result[1].candidates)
            elif name == "make_candidate":
                self.candidates += 1
            elif result.accepted:
                self.matched += 1
            return result
        return server_call

    def _tag_wrapper(self, fn: Callable) -> Callable:
        scans = fn.__name__ == "tag_verify_and_respond"

        def tag_call(tag, *args, **kwargs):
            before = tag.meter.snapshot()
            try:
                return fn(tag, *args, **kwargs)
            finally:
                after = tag.meter.snapshot()
                self.tag.hash_calls += after[0] - before[0]
                self.tag.prng_calls += after[1] - before[1]
                self.tag.xor_calls += after[2] - before[2]
                if scans:
                    self.scanned += len(args[1].candidates)
                    self.last_tag = tag
        return tag_call


def meter_delta(after: tuple[int, ...], before: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(a - b for a, b in zip(after, before))


# ---------------------------------------------------------------------------
# Spans.
# ---------------------------------------------------------------------------

# Span name -> every place the function is reachable from. A function is
# rebound in each module that imported it by name, because calls inside kimap
# go through those module globals.
TIMED: dict[str, list[Patch]] = {
    "bits.hash2": [(bits, "hash2"), (protocol, "hash2")],
    "bits.prng_next": [(bits, "prng_next"), (protocol, "prng_next"), (games, "prng_next")],
    "protocol.keygen": [(protocol, "keygen"), (games, "keygen"), (cli, "keygen")],
    "protocol.server_begin": [(channel, "server_begin"), (games, "server_begin")],
    "protocol.make_candidate": [(protocol, "make_candidate"), (games, "make_candidate")],
    "protocol.server_prepare": [(channel, "server_prepare")],
    "protocol.tag_respond_nonce": [(channel, "tag_respond_nonce"), (games, "tag_respond_nonce")],
    "protocol.tag_scan": [(channel, "tag_verify_and_respond"), (games, "tag_verify_and_respond")],
    "protocol.server_finalize": [(channel, "server_finalize"), (games, "server_finalize")],
    "protocol.server_timeout": [(channel, "server_timeout")],
    "channel.run_session": [(channel, "run_session")],
    "channel.for_session": [(channel.FaultSchedule, "for_session")],
    "games.new_world": [(games, "new_world")],
    "games.oracle.execute": [(games.OracleHandle, "execute")],
    "games.oracle.execute_b": [(games.OracleHandle, "execute_b")],
    "games.oracle.test": [(games.OracleHandle, "test"), (games.OracleHandle, "test_pair")],
    "storage.load_database": [(cli, "load_database")],
    "storage.save_database": [(cli, "save_database")],
    "cli.main": [(cli, "main")],
    "cli.transcript_line": [(cli, "transcript_line")],
}

# Called so often and so briefly that timing them would swamp them.
COUNTED: dict[str, list[Patch]] = {
    "bits.xor": [(bits, "xor"), (protocol, "xor"), (games, "xor")],
    "bits.concat": [(bits, "concat")],
    "bits.split": [(bits, "split"), (protocol, "split"), (games, "split")],
}


class Tracer:
    """Span recorder. Spans live in parallel arrays until :meth:`write`."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.name = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.op = array("l")
        self.counts: Counter[str] = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._patcher = Patcher()

    # -- recording -----------------------------------------------------------

    def timed(self, name: str, fn: Callable) -> Callable:
        name_id = len(self.names)
        self.names.append(name)
        clock, stack = self.clock, self._stack

        def span(*args, **kwargs):
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.end.append(0)
            stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
        return span

    def counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def count(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return count

    def install(self) -> None:
        """Rebind the traced names; the wrappers are built on first use."""
        if self.names:
            self._patcher.apply()
            return
        for name, targets in TIMED.items():
            self._patcher.wrap(targets, lambda fn, name=name: self.timed(name, fn))
        for name, targets in COUNTED.items():
            self._patcher.wrap(targets, lambda fn, name=name: self.counted(name, fn))

    def uninstall(self) -> None:
        self._patcher.restore()

    # -- results ---------------------------------------------------------------

    def aggregate(self) -> dict[str, tuple[int, int, int]]:
        """Span name -> (calls, total duration ns, total self time ns)."""
        selfs = self_times(self.start, self.end, self.parent)
        out: dict[str, list[int]] = {}
        for i, name_id in enumerate(self.name):
            acc = out.setdefault(self.names[name_id], [0, 0, 0])
            acc[0] += 1
            acc[1] += self.end[i] - self.start[i]
            acc[2] += selfs[i]
        return {name: tuple(acc) for name, acc in out.items()}

    def write(self, path) -> None:
        """One tab-separated span per line: name, start ns, end ns, parent
        index (-1 for a root), operation id."""
        with open(path, "w") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\top\n")
            for i, name_id in enumerate(self.name):
                fh.write(f"{self.names[name_id]}\t{self.start[i]}\t{self.end[i]}\t"
                         f"{self.parent[i]}\t{self.op[i]}\n")


def self_times(start, end, parent) -> list[int]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children of one parent never overlap and
    the covered time is the sum of their durations.
    """
    out = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            out[p] -= end[i] - start[i]
    return out
