"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench/tests
"""

import fnmatch
import json
import random
from array import array

import pytest

import harness
from conftest import BENCH
from spans import METER_FIELDS, Meters, Tracer, self_times
from speed import REF_NS, Speed
from workloads import (INTERCEPTIONS, WORKLOADS, FaultMix, Games, advantage_bound, fault_schedule,
                       leaky_loss_allowance)


# -- generators ----------------------------------------------------------------

def _actions(seed):
    return [(a.kind, a.flight, a.session_seq, a.source_session, a.payload)
            for a in fault_schedule(random.Random(seed), 17, 3000).actions]


def test_fault_schedule_is_a_function_of_the_seed():
    assert _actions("s1") == _actions("s1")
    assert _actions("s1") != _actions("s2")


def test_fault_schedule_mix_and_replay_sources():
    schedule = fault_schedule(random.Random(5), 17, 20000)
    share = len(schedule.actions) / 20000
    assert 0.015 < share < 0.025
    assert {f"{a.kind}-{a.flight}" for a in schedule.actions} == set(INTERCEPTIONS)
    dropped_nonce = {a.session_seq for a in schedule.actions if (a.kind, a.flight) == ("drop", 2)}
    for a in schedule.actions:
        if a.kind == "replay":
            assert a.source_session < a.session_seq
            assert a.source_session not in dropped_nonce


def test_game_outcomes_repeat_for_a_seed(tmp_path):
    def digest(seed):
        wl = Games(seed, tmp_path, Meters(), Speed())
        wl.setup()
        return harness.run_ops(wl, wl.meters, wl.speed, seconds=0).digest()

    assert digest(3) == digest(3)
    assert digest(3) != digest(4)


def test_fault_mix_outcomes_repeat_for_a_seed(tmp_path):
    def digest(seed):
        wl = FaultMix(seed, tmp_path, Meters(), Speed())
        wl.episode_len = wl.min_ops = 60
        wl.setup()
        return harness.run_ops(wl, wl.meters, wl.speed, seconds=0).digest()

    assert digest(1) == digest(1)


def test_fault_mix_rejections_are_outcomes_not_failures(tmp_path):
    wl = FaultMix(1, tmp_path, Meters(), Speed())
    wl.episode_len = wl.min_ops = 600
    wl.setup()
    run = harness.run_ops(wl, wl.meters, wl.speed, seconds=0)
    values, gates, _ = wl.finish(run.failed)
    assert run.failed == 0
    assert 0.0 < values["unintercepted_rejected_share"] < 1.0
    assert values["unintercepted_rejected_share"] + values["accepted_share"] <= 1.0
    assert all(ok for _, ok, _ in gates)


# -- failures are counted, not fatal -------------------------------------------------

class Flaky:
    """Operation 3 raises, operation 5 is judged failed, operation 7 cannot
    be judged."""

    min_ops = 10
    round_len = 1

    def __init__(self):
        self.raised = 0

    def next_op(self, i):
        def call():
            if i == 3:
                raise RuntimeError("boom")
            return i
        return "op", call

    def judge(self, i, result, error):
        if error is not None:
            return self.count_raise(i, error)
        if i == 7:
            raise ValueError("unreadable result")
        return f"{i}", i == 5

    def count_raise(self, i, error):
        self.raised += 1
        return f"{i} raised", True


def test_raised_and_failed_operations_count_as_failures():
    wl = Flaky()
    run = harness.run_ops(wl, Meters(), Speed(), seconds=0)
    assert len(run) == 10
    assert run.failed == 3
    assert wl.raised == 2


def test_a_failed_gate_makes_the_run_incorrect(tmp_path):
    wl = Games(1, tmp_path, Meters(), Speed())
    wl.setup()
    wl.trials["ind"], wl.wins["ind"] = 1000, 700           # far beyond chance
    wl.trials["backward-leaky"], wl.wins["backward-leaky"] = 1000, 1000
    _, gates, _ = wl.finish(failed=0)
    verdict = {name: ok for name, ok, _ in gates}
    assert verdict["ind advantage"] is False
    assert verdict["backward-leaky advantage"] is True
    assert verdict["forward advantage"] is False             # no trials run


def test_gate_bounds():
    assert abs(advantage_bound(10_000) - 0.0245) < 1e-9
    # 2**-16 false matches per trial: P(X >= 2) is 1e-8 at 10 trials and
    # 1e-4 at 1000 trials, where P(X >= 3) falls to 6e-7.
    assert leaky_loss_allowance(10) == 1
    assert leaky_loss_allowance(1000) == 2


# -- self time -----------------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    # a [0, 100) holds b [10, 60) and c [70, 90); b holds d [20, 30).
    start = array("q", [0, 10, 20, 70])
    end = array("q", [100, 60, 30, 90])
    parent = array("l", [-1, 0, 1, 0])
    assert self_times(start, end, parent) == [100 - 50 - 20, 50 - 10, 10, 20]


def test_tracer_records_nested_spans():
    ticks = iter(range(0, 1000, 10))
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.timed("inner", lambda: None)
    outer = tracer.timed("outer", lambda: (inner(), inner()))
    outer()
    agg = tracer.aggregate()
    # outer: 0..50; inner: 10..20 and 30..40
    assert agg["outer"] == (1, 50, 30)
    assert agg["inner"] == (2, 20, 20)
    assert list(tracer.parent) == [-1, 0, 0]


# -- coverage gates ------------------------------------------------------------------

def test_benchmark_json_names_the_metrics_each_workload_moves():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    layer_names = [m["name"] for m in spec["per_layer"]]
    for workload in spec["workloads"]:
        moves = WORKLOADS[workload["name"]].moves
        assert workload["why"].endswith("moves " + ", ".join(moves))
        for pattern in moves:
            assert fnmatch.filter(layer_names, pattern), pattern


class Covered:
    op_name = "session"
    candidates_per_op = 4
    hashes_metered = True
    moves = ("a.*",)


def _run(candidates, server_hash, traced_ops):
    run = harness.Run(prefix_len=2)
    counts = [0] * len(METER_FIELDS)
    counts[METER_FIELDS.index("candidates")] = candidates
    counts[METER_FIELDS.index("server_hash")] = server_hash
    for _ in range(traced_ops):
        run.add("op", 1, 1, True, tuple(counts), "", False)
    return run


def _verdicts(run, hash_spans, layers):
    tracer = Tracer()
    hash2 = tracer.timed("bits.hash2", lambda: None)
    for _ in range(hash_spans):
        hash2()
    return [ok for _, ok, _ in harness.coverage_gates(Covered(), run, layers, tracer)]


def test_coverage_gates_pass_when_every_call_is_seen():
    assert _verdicts(_run(4, 3, 2), 6, {"a.x": (1.0, "us"), "a.y": (2.0, "count")}) == [True] * 3


def test_coverage_gates_catch_a_missed_call():
    layers = {"a.x": (1.0, "us")}
    # server_prepare no longer counted: too few candidates.
    assert _verdicts(_run(3, 3, 2), 6, layers) == [False, True, True]
    # hash2 called past its span wrapper, or outside the meters.
    assert _verdicts(_run(4, 3, 2), 5, layers) == [True, False, True]
    assert _verdicts(_run(4, 2, 2), 6, layers) == [True, False, True]
    # a metric the workload moves reads 0, or no metric matches.
    assert _verdicts(_run(4, 3, 2), 6, {"a.x": (0.0, "us")}) == [True, True, False]
    assert _verdicts(_run(4, 3, 2), 6, {"b.x": (1.0, "us")}) == [True, True, False]


# -- host-speed scaling ----------------------------------------------------------------

def test_speed_scales_an_interval_by_the_readings_around_it():
    ms = 1_000_000
    speed = Speed()
    speed.stamps = array("q", [0, 100 * ms, 110 * ms, 120 * ms, 500 * ms])
    speed.readings = array("q", [REF_NS, 2 * REF_NS, 2 * REF_NS, 2 * REF_NS, REF_NS])
    # Within the slow phase the host ran at half the reference speed.
    assert speed.scale(101 * ms, 109 * ms) == 4 * ms
    # In the fast phase the time stands.
    assert speed.scale(505 * ms, 510 * ms) == 5 * ms
    # Far from any reading, the readings on either side count.
    assert speed.scale(300 * ms, 301 * ms) == ms / 1.5


def test_speed_scales_a_long_interval_piece_by_piece():
    ms = 1_000_000
    speed = Speed()
    # A reading every 100 ms: slow for the first half second, then fast.
    speed.stamps = array("q", range(0, 1001 * ms, 100 * ms))
    speed.readings = array("q", [2 * REF_NS] * 5 + [REF_NS] * 6)
    calibrating = (4 * 2 + 5) * REF_NS  # the readings at 100..900 ms
    # Each reading's time is split between the pieces on either side of it.
    # The piece from 400 to 500 ms lies between a slow and a fast reading.
    slow, mixed, fast = 400 * ms - 7 * REF_NS, 100 * ms - 1.5 * REF_NS, 500 * ms - 4.5 * REF_NS
    assert speed.scale(0, 1000 * ms) == pytest.approx(slow / 2 + mixed / 1.5 + fast)
    assert slow + mixed + fast == 1000 * ms - calibrating


def test_layer_shares_and_times_are_of_raw_operation_times():
    run = harness.Run(prefix_len=2)
    run.add("op", 0, 80, False, (0,) * len(METER_FIELDS), "", False)
    run.add("op", 100, 100, True, (0,) * len(METER_FIELDS), "", False)
    run.ns = array("q", [40, 50])  # the host ran at half the reference speed
    ticks = iter([0, 50])
    tracer = Tracer(clock=lambda: next(ticks))
    tracer.timed("bits.hash2", lambda: None)()
    layers = harness.per_layer(run, tracer, {})
    assert layers["bits.hash2.share"][0] == 0.5
    assert layers["trace.overhead_share"][0] == 50 / 40 - 1

