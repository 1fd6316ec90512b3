"""kimap benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a kimap checkout; the library is imported from
``src/``. Workloads: fleet-steady, fault-mix, games, cli-run (see
``perfbench/README.md``). Each run is one process and one client thread.

The report lines name every figure with its unit. The last line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, which holds
the end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``. The exit code is 0 when every correctness gate passed, 1 when
one failed, and 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                    "op_p95_ms": "ms", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "kimap" / "__init__.py").is_file():
        print(f"perfbench: no kimap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import harness
    from spans import Meters, Tracer
    from speed import REF_NS, Speed
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(have: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    meters = Meters()
    meters.install()
    speed = Speed()
    wl = WORKLOADS[args.workload](args.seed, OUT / f"work-{os.getpid()}", meters, speed)
    try:
        wl.workdir.mkdir(exist_ok=True)
        setup_times, raw_setup_times = harness.measure_setup(wl, speed)
        tracer = Tracer() if args.trace else None
        run = harness.run_ops(wl, meters, speed, args.seconds, tracer)
        rss_mb = harness.peak_rss_mb()
        values, gates, notes = wl.finish(run.failed)
    finally:
        wl.close()
        meters.uninstall()
        if wl.workdir.exists():
            wl.workdir.rmdir()

    op = wl.op_name
    n = len(run)
    counts = harness.per_op_counts(run.prefix_counts, run.prefix)
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: {n} {op}s "
          f"in {sum(run.raw_ns) / 1e9:.3f} s, {run.failed} failed")
    if tracer is None:
        e2e = harness.end_to_end(setup_times, run.ns, rss_mb)
        raw = harness.end_to_end(raw_setup_times, run.raw_ns, rss_mb)
        print(f"times below are at the reference speed (calibration loop {REF_NS / 1e6} ms); "
              f"unscaled: setup_s {raw['setup_s']:.6f}, {op}_p50_ms {raw['op_p50_ms']:.4f}, "
              f"{op}_p95_ms {raw['op_p95_ms']:.4f}")
        print(f"setup_s {e2e['setup_s']:.6f} s (median of {len(setup_times)})")
        print(f"{op}s_per_s {e2e['ops_per_s']:.4f} 1/s")
        print(f"{op}_p50_ms {e2e['op_p50_ms']:.4f} ms")
        print(f"{op}_p95_ms {e2e['op_p95_ms']:.4f} ms ({n} samples)")
        print(f"peak_rss_mb {e2e['peak_rss_mb']:.2f} MB")
    print(f"failed_share {run.failed / n:.6f} ({run.failed}/{n})")
    print(f"over the first {run.prefix} {op}s, per {op}: "
          + " ".join(f"{k}={v:.4f}" for k, v in counts.items()))
    for k, v in values.items():
        print(f"{k} {v:.6f}" if isinstance(v, float) else f"{k} {v}")
    for line in notes:
        print(line)
    print(f"outcome_digest {op}s=1..{run.prefix} sha256={run.digest()}")

    if tracer is not None:
        layers = harness.per_layer(run, tracer, values)
        metrics = {name: value for name, (value, _) in layers.items()}
        units = {name: unit for name, (_, unit) in layers.items()}
        spans_file = OUT / f"spans-{wl.name}.tsv"
        tracer.write(spans_file)
        for name, (value, unit) in layers.items():
            print(f"{name} {value:.6f} {unit}")
        print(f"spans {len(tracer.start)} written to {spans_file.relative_to(ROOT)}")
        gates += harness.coverage_gates(wl, run, layers, tracer)
    else:
        metrics, units = e2e, END_TO_END_UNITS
        gates += harness.coverage_gates(wl, run)
    for name, ok, detail in gates:
        print(f"gate {'pass' if ok else 'FAIL'}: {name} ({detail})")

    correct = all(ok for _, ok, _ in gates)
    print(json.dumps({
        "correct": correct,
        "attempted": n,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
