"""Measurement loop and the figures computed from it.

One client runs operations back to back (a closed loop): the next operation
starts when the previous one has returned. A run measures for ``seconds``,
but never stops before the workload's ``min_ops`` operations or inside a
round of ``round_len`` operations.

Every time is scaled to the reference speed of :mod:`speed`, which is
calibrated between operations; the raw times are kept beside the scaled ones.

In a traced run the tracer is switched on for every second operation only,
so traced and untraced operations interleave over the same inputs; their
mean times give ``trace.overhead_share``.
"""

from __future__ import annotations

import fnmatch
import hashlib
import resource
import statistics
import time
from array import array

from spans import METER_FIELDS, Meters, Tracer, meter_delta
from speed import Speed


class Run:
    """What a run keeps per operation: its start, its raw and scaled time,
    its label and whether it was traced, 27 bytes in arrays. Meter counts and
    outcomes are folded into sums and a digest as they arrive, so a faster
    program, which fits more operations into a run, barely moves
    ``peak_rss_mb``."""

    def __init__(self, prefix_len: int) -> None:
        self.prefix_len = prefix_len
        self.start_ns = array("q")
        self.raw_ns = array("q")
        self.ns = array("q")  # scaled by scale() once the run is over
        self.label = array("H")
        self.traced = array("b")
        self.labels: dict[str, int] = {}
        self.failed = 0
        self.prefix_counts = [0] * len(METER_FIELDS)
        self.traced_counts = [0] * len(METER_FIELDS)
        self._digest = hashlib.sha256()

    def add(self, label: str, start_ns: int, raw_ns: int, traced: bool,
            counts: tuple[int, ...], outcome: str, failed: bool) -> None:
        i = len(self.raw_ns)
        self.start_ns.append(start_ns)
        self.raw_ns.append(raw_ns)
        self.label.append(self.labels.setdefault(label, len(self.labels)))
        self.traced.append(traced)
        self.failed += failed
        if i < self.prefix_len:
            self._digest.update(outcome.encode() + b"\n")
            self.prefix_counts = [a + b for a, b in zip(self.prefix_counts, counts)]
        if traced:
            self.traced_counts = [a + b for a, b in zip(self.traced_counts, counts)]

    def scale(self, speed: Speed) -> None:
        self.ns = array("q", (round(speed.scale(s, s + r))
                              for s, r in zip(self.start_ns, self.raw_ns)))

    def __len__(self) -> int:
        return len(self.raw_ns)

    @property
    def prefix(self) -> int:
        return min(self.prefix_len, len(self.raw_ns))

    def digest(self) -> str:
        """sha256 over the outcome lines of the first ``prefix`` operations."""
        return self._digest.hexdigest()

    def times(self, traced: bool | None = None, label: str | None = None,
              scaled: bool = True) -> list[int]:
        """Scaled (or raw) operation times in ns, optionally only the
        (un)traced ones or one label."""
        want = self.labels.get(label, -1) if label is not None else None
        times = self.ns if scaled else self.raw_ns
        return [ns for ns, t, lab in zip(times, self.traced, self.label)
                if (traced is None or t == traced) and (want is None or lab == want)]


def measure_setup(wl, speed: Speed) -> tuple[list[float], list[float]]:
    """Set the workload up ``wl.setups`` times; the last world stays. Returns
    the scaled and the raw times in s. The host speed is read right before
    and right after each set-up, and during a warm-up."""
    scaled, raw = [], []
    for _ in range(wl.setups):
        speed.calibrate()
        t0 = time.perf_counter_ns()
        wl.setup()
        t1 = time.perf_counter_ns()
        speed.calibrate()
        raw.append((t1 - t0) / 1e9)
        scaled.append(speed.scale(t0, t1) / 1e9)
    return scaled, raw


def run_ops(wl, meters: Meters, speed: Speed, seconds: float,
            tracer: Tracer | None = None) -> Run:
    """Run operations until ``seconds`` have passed. An operation that raises
    is recorded as failed and the run goes on."""
    run = Run(wl.min_ops)
    deadline = time.perf_counter() + seconds
    i = 0
    while i < wl.min_ops or i % wl.round_len or time.perf_counter() < deadline:
        label, call = wl.next_op(i)
        speed.calibrate()
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.op_id = i
            tracer.install()
        before = meters.snapshot()
        result = error = None
        t0 = time.perf_counter_ns()
        try:
            result = call()
        except Exception as exc:  # counted as a failed operation, not fatal
            error = exc
        ns = time.perf_counter_ns() - t0
        if traced:
            tracer.uninstall()
        counts = meter_delta(meters.snapshot(), before)
        try:
            outcome, failed = wl.judge(i, result, error)
        except Exception as exc:  # a result the workload cannot read
            outcome, failed = wl.count_raise(i, exc)
        run.add(label, t0, ns, traced, counts, outcome, failed)
        i += 1
    speed.calibrate()
    run.scale(speed)
    return run


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(setup_times: list[float], op_ns, rss_mb: float) -> dict[str, float]:
    """``rss_mb`` is read right after the run, before these statistics
    allocate lists that grow with the number of operations."""
    ms = [ns / 1e6 for ns in op_ns]
    vigintiles = statistics.quantiles(ms, n=20, method="inclusive")
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(ms) / (sum(ms) / 1e3),
        "op_p50_ms": vigintiles[9],
        "op_p95_ms": vigintiles[18],
        "peak_rss_mb": rss_mb,
    }


def per_op_counts(sums: list[int], n: int) -> dict[str, float]:
    """Mean meter counts per operation (hash-equivalents = hash + PRNG)."""
    sums = dict(zip(METER_FIELDS, sums))
    n = n or 1
    return {
        "server_hash_ops": (sums["server_hash"] + sums["server_prng"]) / n,
        "tag_hash_ops": (sums["tag_hash"] + sums["tag_prng"]) / n,
        "server_xor": sums["server_xor"] / n,
        "tag_xor": sums["tag_xor"] / n,
        "candidates": sums["candidates"] / n,
        "useful_candidate_ratio": sums["matched"] / sums["candidates"] if sums["candidates"] else 0.0,
    }


def per_layer(run: Run, tracer: Tracer,
              values: dict[str, float]) -> dict[str, tuple[float, str]]:
    """The per-layer figures of a traced run. Meter counts are taken over the
    first ``min_ops`` operations and repeat exactly for a seed; times and
    call counts come from the traced operations. Times are raw, as the spans
    are, except ``trace.overhead_share``, a ratio of scaled means."""
    traced = run.times(traced=True)
    n = len(traced)
    op_ns = sum(run.times(traced=True, scaled=False))
    agg = tracer.aggregate()

    def calls(name):
        return agg.get(name, (0, 0, 0))[0] / n

    def mean(name, unit_ns, field=1):
        c, *totals = agg.get(name, (0, 0, 0))
        return totals[field - 1] / c / unit_ns if c else 0.0

    def share(name):
        return agg.get(name, (0, 0, 0))[1] / op_ns

    def trial_us(label):
        ns = run.times(traced=True, label=label, scaled=False)
        return statistics.fmean(ns) / 1e3 if ns else 0.0

    counts = per_op_counts(run.prefix_counts, run.prefix)
    scan = agg.get("protocol.tag_scan", (0, 0, 0))[1]
    scanned = run.traced_counts[METER_FIELDS.index("scanned")]
    return {  # name: (value, unit)
        "bits.hash2.calls": (calls("bits.hash2"), "count"),
        "bits.hash2.us": (mean("bits.hash2", 1e3), "us"),
        "bits.hash2.share": (share("bits.hash2"), "ratio"),
        "bits.prng_next.calls": (calls("bits.prng_next"), "count"),
        "bits.prng_next.us": (mean("bits.prng_next", 1e3), "us"),
        "bits.xor.calls": (tracer.counts["bits.xor"] / n, "count"),
        "bits.concat.calls": (tracer.counts["bits.concat"] / n, "count"),
        "bits.split.calls": (tracer.counts["bits.split"] / n, "count"),
        "protocol.candidates": (counts["candidates"], "count"),
        "protocol.useful_candidate_ratio": (counts["useful_candidate_ratio"], "ratio"),
        "protocol.make_candidate.us": (mean("protocol.make_candidate", 1e3), "us"),
        "protocol.server_prepare.ms": (mean("protocol.server_prepare", 1e6), "ms"),
        "protocol.server_prepare.share": (share("protocol.server_prepare"), "ratio"),
        "protocol.tag_scan.us_per_candidate": (scan / scanned / 1e3 if scanned else 0.0, "us"),
        "protocol.server_finalize.us": (mean("protocol.server_finalize", 1e3), "us"),
        "protocol.server_timeout.us": (mean("protocol.server_timeout", 1e3), "us"),
        "protocol.keygen.ms": (mean("protocol.keygen", 1e6), "ms"),
        "protocol.server_hash_ops": (counts["server_hash_ops"], "count"),
        "protocol.tag_hash_ops": (counts["tag_hash_ops"], "count"),
        "protocol.desynced_records": (values.get("desynced_records", 0), "count"),
        "channel.run_session.self_us": (mean("channel.run_session", 1e3, field=2), "us"),
        "channel.for_session.us": (mean("channel.for_session", 1e3), "us"),
        "channel.accepted_share": (values.get("accepted_share", 0.0), "ratio"),
        "channel.recovered_share": (values.get("recovered_share", 0.0), "ratio"),
        "channel.aborted_share": (values.get("aborted_share", 0.0), "ratio"),
        "channel.unintercepted_rejected_share": (values.get("unintercepted_rejected_share", 0.0),
                                                 "ratio"),
        "games.trial_us.ind": (trial_us("ind"), "us"),
        "games.trial_us.forward": (trial_us("forward"), "us"),
        "games.trial_us.backward": (trial_us("backward"), "us"),
        "games.trial_us.backward-leaky": (trial_us("backward-leaky"), "us"),
        "games.trial_us.ind2tag": (trial_us("ind2tag"), "us"),
        "games.new_world.us": (mean("games.new_world", 1e3), "us"),
        "games.oracle.execute.us": (mean("games.oracle.execute", 1e3), "us"),
        "games.oracle.execute_b.us": (mean("games.oracle.execute_b", 1e3), "us"),
        "games.oracle.test.us": (mean("games.oracle.test", 1e3), "us"),
        "storage.load_database.ms": (mean("storage.load_database", 1e6), "ms"),
        "storage.save_database.ms": (mean("storage.save_database", 1e6), "ms"),
        "storage.db_bytes": (values.get("db_bytes", 0), "B"),
        "cli.main.self_ms": (mean("cli.main", 1e6, field=2), "ms"),
        "cli.transcript_line.us": (mean("cli.transcript_line", 1e3), "us"),
        "trace.overhead_share": (statistics.fmean(traced)
                                 / statistics.fmean(run.times(traced=False)) - 1.0, "ratio"),
    }


def coverage_gates(wl, run: Run, layers: dict[str, tuple[float, str]] | None = None,
                   tracer: Tracer | None = None) -> list[tuple[str, bool, str]]:
    """Gates that fail when a wrapper in :mod:`spans` stops seeing calls, so
    that a lost call cannot read as a gain. ``layers`` and ``tracer`` are
    given for a traced run."""
    gates = []
    sums = dict(zip(METER_FIELDS, run.prefix_counts))
    if wl.candidates_per_op is not None:
        want = wl.candidates_per_op * run.prefix
        gates.append((f"{wl.candidates_per_op} candidates per {wl.op_name}",
                      sums["candidates"] == want,
                      f"{sums['candidates']} over {run.prefix} {wl.op_name}s, want {want}"))
    if tracer is None:
        return gates
    if wl.hashes_metered:
        traced = dict(zip(METER_FIELDS, run.traced_counts))
        metered_hashes = traced["server_hash"] + traced["tag_hash"]
        spans = tracer.aggregate().get("bits.hash2", (0, 0, 0))[0]
        gates.append(("traced hash2 spans equal metered server and tag hashes",
                      spans == metered_hashes, f"{spans} spans, {metered_hashes} metered"))
    for pattern in wl.moves:
        names = fnmatch.filter(layers, pattern)
        zero = [name for name in names if not layers[name][0]]
        gates.append((f"{pattern} non-zero", bool(names) and not zero,
                      f"{len(names)} metrics, zero: {', '.join(zero) or 'none'}"))
    return gates
