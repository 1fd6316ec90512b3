"""The repository's own pins: every xfail that cites a ROADMAP item is strict,
expects only its own assertion to fail and cites an item ROADMAP.md has,
every speed claim in a root BENCH_*.json adds up from its runs, each demo
prints the bytes of its golden file, each ``kimap`` command in the README
parses, the protocol's session objects are built by their one builder
alone, only the tests that name the stored recovery state read a record's
previous slot as a field, and every library name that the benchmark's
spans rebind exists."""

import ast
import importlib.util
import json
import os
import re
import shlex
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from kimap import cli, protocol

ROOT = Path(__file__).resolve().parent.parent


def read_tests():
    """Each tests/*.py module's source, by its path from the root."""
    return {f"tests/{p.name}": p.read_text() for p in sorted((ROOT / "tests").glob("*.py"))}


def xfail_problems(sources, roadmap):
    """The xfails in ``sources`` whose reason is "ROADMAP item N", and what
    is wrong with each: not strict=True, no raises=AssertionError (so that
    a test broken by, say, a ``TypeError`` does not read as xfailed), or no
    item of ``roadmap`` headed ``N. **``."""
    items = set(re.findall(r"^(\d+)\. \*\*", roadmap, re.M))
    cited, bad = [], []
    for path, source in sources.items():
        for node in ast.walk(ast.parse(source, path)):
            if not (isinstance(node, ast.Call) and ast.unparse(node.func) == "pytest.mark.xfail"):
                continue
            kw = {k.arg: k.value for k in node.keywords}
            reason = kw["reason"].value if isinstance(kw.get("reason"), ast.Constant) else ""
            item = re.fullmatch(r"ROADMAP item (\d+)", str(reason))
            if not item:
                continue
            where = f"{path}:{node.lineno}"
            cited.append(where)
            strict = kw.get("strict")
            if not (isinstance(strict, ast.Constant) and strict.value is True):
                bad.append(f"{where}: the xfail citing ROADMAP item {item[1]} is not strict=True")
            raises = kw.get("raises")
            if raises is None or ast.unparse(raises) != "AssertionError":
                bad.append(f"{where}: the xfail citing ROADMAP item {item[1]} does not state "
                           "raises=AssertionError")
            if item[1] not in items:
                bad.append(f"{where}: ROADMAP.md has no item {item[1]}")
    return cited, bad


def claim_problems(path, record, better):
    """What does not add up in the claims of one BENCH_*.json ``record``:
    a run not correct or with failed operations, fewer than 10 pairs of one
    parent and one change run, recorded change wins that differ from the
    counted ones (in ``better``'s direction of the claim's metric) or fall
    under 9/10 of the pairs, or a side's median that differs from its
    summary median to 4 places. A claim's metric is its own ``metric``, else
    the record's."""
    bad = []
    for n, claim in enumerate(record["claims"], 1):
        metric = claim.get("metric", record["metric"])
        where = f"{path}: claim {n}"
        if not claim["runs"]:
            bad.append(f"{where} has no runs")
        pairs, values = {}, {"parent": [], "change": []}
        for run in claim["runs"]:
            result = run["result"]
            if result.get("correct") is not True or result.get("failed") != 0:
                bad.append(f"{where}, {run['side']} seed {run['seed']}: "
                           f"correct={result.get('correct')} failed={result.get('failed')}")
            value = result["metrics"][metric]["value"]
            pairs.setdefault(run["pair"], {}).setdefault(run["side"], []).append(value)
            values[run["side"]].append(value)
        if len(pairs) < 10 or any(sorted(p) != ["change", "parent"]
                                  or len(p["change"]) != 1 or len(p["parent"]) != 1
                                  for p in pairs.values()):
            bad.append(f"{where}: needs >= 10 pairs of one parent and one change run")
            continue
        sign = 1 if better[metric] == "higher" else -1
        wins = sum(sign * (p["change"][0] - p["parent"][0]) > 0 for p in pairs.values())
        if claim["result"]["change_wins"] != f"{wins}/{len(pairs)}" or 10 * wins < 9 * len(pairs):
            bad.append(f"{where}: change wins {wins}/{len(pairs)} pairs, "
                       f"recorded {claim['result']['change_wins']}")
        for side, runs in values.items():
            median, recorded = statistics.median(runs), claim["summary"][metric][side]["median"]
            if round(median, 4) != round(recorded, 4):
                bad.append(f"{where}: {side} median {median:.4f}, recorded {recorded}")
    return bad


def read_bench():
    """Each root BENCH_*.json record by its file name, and BENCHMARK.json's
    direction of each end-to-end metric."""
    records = {p.name: json.loads(p.read_text()) for p in sorted(ROOT.glob("BENCH_*.json"))}
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    return records, {m["name"]: m["better"] for m in benchmark["end_to_end"]}


class TestXfailsCiteRoadmapItems:
    def test_each_cited_item_is_strict_and_present(self):
        cited, bad = xfail_problems(read_tests(), (ROOT / "ROADMAP.md").read_text())
        assert cited and bad == []

    @pytest.mark.parametrize("marker, bad", [
        ('xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")', []),
        ('xfail(raises=AssertionError, reason="ROADMAP item 1")',
         ["tests/test_x.py:4: the xfail citing ROADMAP item 1 is not strict=True"]),
        ('xfail(strict=True, raises=AssertionError, reason="ROADMAP item 99")',
         ["tests/test_x.py:4: ROADMAP.md has no item 99"]),
        ('xfail(strict=True, reason="ROADMAP item 1")',
         ["tests/test_x.py:4: the xfail citing ROADMAP item 1 does not state "
          "raises=AssertionError"]),
        ('xfail(strict=True, raises=TypeError, reason="ROADMAP item 1")',
         ["tests/test_x.py:4: the xfail citing ROADMAP item 1 does not state "
          "raises=AssertionError"]),
    ], ids=["good", "not-strict", "item-99", "no-raises", "raises-another-error"])
    def test_a_bad_citation_is_found(self, marker, bad):
        source = f"import pytest\n\n\n@pytest.mark.{marker}\ndef test_x():\n    pass\n"
        found = xfail_problems({"tests/test_x.py": source}, "1. **An item.**\n")
        assert found == (["tests/test_x.py:4"], bad)


class TestBenchRecords:
    def test_every_claim_adds_up_from_its_runs(self):
        records, better = read_bench()
        assert records and all(r["claims"] for r in records.values())
        assert [p for name, r in records.items() for p in claim_problems(name, r, better)] == []

    def test_a_summary_median_off_in_its_4th_place_is_found(self):
        records, better = read_bench()
        name, record = next(iter(records.items()))
        summary = record["claims"][0]["summary"][record["metric"]]["change"]
        summary["median"] = round(summary["median"] + 0.0001, 4)
        bad = claim_problems(name, record, better)
        assert len(bad) == 1 and bad[0].startswith(f"{name}: claim 1: change median ")


# Each class that one function alone builds, and that function. The protocol
# relies on it: a PendingSession's expectations line up with its slots, each
# held to the session's width, and a SessionOperands' terms are those of its
# x_s and x_t, held to one width.
SOLE_BUILDERS = {"PendingSession": "make_candidate", "SessionOperands": "session_operands"}


def builder_problems(sources):
    """The classes of SOLE_BUILDERS that ``sources`` (path -> source) build
    in their builder, and each call that builds one anywhere else."""
    built, bad = set(), []

    def visit(node, path, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        elif isinstance(node, ast.Call):
            name = ast.unparse(node.func).rpartition(".")[2]
            if name in SOLE_BUILDERS and owner == SOLE_BUILDERS[name]:
                built.add(name)
            elif name in SOLE_BUILDERS:
                bad.append(f"{path}:{node.lineno}: {name}( is called in {owner or 'the module'}, "
                           f"not in {SOLE_BUILDERS[name]}")
        for child in ast.iter_child_nodes(node):
            visit(child, path, owner)

    for path, source in sources.items():
        visit(ast.parse(source, path), path, None)
    return built, bad


class TestSoleBuilders:
    def test_each_session_object_is_built_by_its_builder_alone(self):
        sources = {f"src/kimap/{p.name}": p.read_text()
                   for p in sorted((ROOT / "src" / "kimap").glob("*.py"))}
        assert builder_problems(sources) == (set(SOLE_BUILDERS), [])

    def test_a_pending_session_built_in_server_timeout_is_found(self):
        source = ("def server_timeout(server, pending):\n"
                  "    return protocol.PendingSession(pending.ops, (), ())\n")
        assert builder_problems({"p.py": source}) == (set(), [
            "p.py:2: PendingSession( is called in server_timeout, not in make_candidate"])


# The recovery representation's fields, and the tests (modules, or classes
# of a module) that may read each as a field. The previous slot: the kimapdb
# v1 format, the server-cache reference model, the golden record dump, and
# the slot builder's own tests. The failure count: the server-cache
# reference model, the golden record dump, the schedule search's state, and
# the protocol's finalize and width tests. Every other test asks the library
# where a key sits (offered_slots, slot_origin, World.whereabouts) or whether
# a record is desynchronized, so a change to the recovery representation
# breaks only the tests about it.
FIELD_READERS = {
    "key_previous": {"tests/test_storage.py", "tests/test_server_cache.py",
                     "tests/test_golden_transcript.py", "tests/test_protocol.py::TestSlotKeys"},
    "consecutive_failures": {"tests/test_server_cache.py", "tests/test_golden_transcript.py",
                             "tests/test_schedule_search.py",
                             "tests/test_protocol.py::TestServerFinalize",
                             "tests/test_protocol.py::TestWidthChecks"},
}


def field_read_problems(sources):
    """Each load of a field of :data:`FIELD_READERS` in ``sources`` (path ->
    source) outside that field's readers. An assignment that builds a state
    is not a load."""
    bad = []

    def visit(node, path, scope):
        if isinstance(node, ast.ClassDef) and scope == path:
            scope = f"{path}::{node.name}"
        elif (isinstance(node, ast.Attribute) and node.attr in FIELD_READERS
              and isinstance(node.ctx, ast.Load) and not {path, scope} & FIELD_READERS[node.attr]):
            bad.append(f"{path}:{node.lineno}: reads .{node.attr}")
        for child in ast.iter_child_nodes(node):
            visit(child, path, scope)

    for path, source in sources.items():
        visit(ast.parse(source, path), path, path)
    return bad


class TestRecoveryFieldReads:
    def test_no_test_reads_the_previous_slot_outside_its_readers(self):
        assert field_read_problems(read_tests()) == []

    def test_a_previous_slot_read_in_a_test_is_found(self):
        source = ("class TestSlotKeys:\n"
                  "    def test_x(self, rec):\n"
                  "        rec.key_previous = None\n"
                  "        assert rec.key_previous is None\n")
        assert field_read_problems({"tests/test_protocol.py": source}) == []
        assert field_read_problems({"tests/test_channel.py": source}) == [
            "tests/test_channel.py:4: reads .key_previous"]

    def test_a_failure_count_read_in_a_test_is_found(self):
        source = ("class TestServerFinalize:\n"
                  "    def test_x(self, rec):\n"
                  "        rec.consecutive_failures = 0\n"
                  "        assert rec.consecutive_failures == 0\n")
        assert field_read_problems({"tests/test_protocol.py": source}) == []
        assert field_read_problems({"tests/test_schedule_search.py": source}) == []
        assert field_read_problems({"tests/test_channel.py": source}) == [
            "tests/test_channel.py:4: reads .consecutive_failures"]
        assert field_read_problems({"tests/test_protocol.py": source.replace(
            "TestServerFinalize", "TestSlotKeys")}) == [
            "tests/test_protocol.py:4: reads .consecutive_failures"]


def _claim(wins, pairs, **claim):
    """A claim on ``peak_rss_mb`` of ``pairs`` pairs, the change lower (so
    better) in the first ``wins`` and higher in the rest, recorded as
    ``wins/pairs``."""
    runs = [{"pair": p, "seed": p, "side": side,
             "result": {"correct": True, "failed": 0, "metrics": {
                 "ops_per_s": {"value": 100.0}, "peak_rss_mb": {"value": value}}}}
            for p in range(1, pairs + 1)
            for side, value in (("parent", 37.0), ("change", 30.0 if p <= wins else 38.0))]
    change = [r["result"]["metrics"]["peak_rss_mb"]["value"] for r in runs if r["side"] == "change"]
    return {**claim, "result": {"change_wins": f"{wins}/{pairs}"}, "runs": runs,
            "summary": {"ops_per_s": {"parent": {"median": 100.0}, "change": {"median": 100.0}},
                        "peak_rss_mb": {"parent": {"median": 37.0},
                                        "change": {"median": statistics.median(change)}}}}


class TestClaimMetric:
    """A claim that names its own metric is counted on that metric, in its
    direction, with the same rules as any claim."""

    better = {"ops_per_s": "higher", "peak_rss_mb": "lower"}

    def problems(self, claim):
        record = {"metric": "ops_per_s", "claims": [claim]}
        return claim_problems("BENCH_x.json", record, self.better)

    def test_lower_is_better_wins_count_downward(self):
        assert self.problems(_claim(10, 10, metric="peak_rss_mb")) == []
        assert self.problems(_claim(9, 10, metric="peak_rss_mb")) == []

    def test_too_few_wins_or_pairs_are_found(self):
        assert self.problems(_claim(8, 10, metric="peak_rss_mb")) == [
            "BENCH_x.json: claim 1: change wins 8/10 pairs, recorded 8/10"]
        assert self.problems(_claim(9, 9, metric="peak_rss_mb")) == [
            "BENCH_x.json: claim 1: needs >= 10 pairs of one parent and one change run"]

    def test_a_claim_without_a_metric_counts_the_records_metric(self):
        """The same runs counted on the record's ops_per_s, where no pair
        differs, win none."""
        assert self.problems(_claim(10, 10)) == [
            "BENCH_x.json: claim 1: change wins 0/10 pairs, recorded 10/10"]


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.stem)
def test_demo_prints_its_golden_file(demo, tmp_path):
    """Each demo runs on the stdlib alone (-S skips site-packages) against
    src/, and prints exactly its file under tests/fixtures/golden_demos/."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-S", str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, check=False)
    assert proc.returncode == 0, proc.stderr.decode()
    golden = ROOT / "tests" / "fixtures" / "golden_demos" / f"{demo.stem}.txt"
    assert proc.stdout == golden.read_bytes()


def readme_commands(text):
    """The argv of each ``kimap ...`` line in the ```sh blocks of ``text``,
    split as a shell splits it, its comment dropped."""
    blocks = re.findall(r"^```sh\n(.*?)^```", text, re.S | re.M)
    return [shlex.split(line, comments=True)[1:]
            for block in blocks for line in block.splitlines() if line.startswith("kimap ")]


def parse_error(argv, capsys):
    """What ``kimap`` prints for ``argv``'s usage error, or '' when it parses.
    Parsing runs no command."""
    try:
        cli.build_parser(argv[0]).parse_args(argv)
    except SystemExit:
        return capsys.readouterr().err
    return ""


@pytest.mark.parametrize("argv", readme_commands((ROOT / "README.md").read_text()), ids=" ".join)
def test_readme_command_parses(argv, capsys):
    assert parse_error(argv, capsys) == ""


def benchmark_patch_targets():
    """Every ``(object, name)`` that ``perfbench/spans.py`` rebinds: its
    server and tag meters' calls, its timed spans and its counted ones. The
    file is imported from its path, as the benchmark leaves it."""
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    groups = [spans.SERVER_CALLS, spans.TAG_CALLS, *spans.TIMED.values(),
              *spans.COUNTED.values()]
    return [target for group in groups for target in group]


def unresolved(targets):
    """Each ``(object, name)`` of ``targets`` whose object has no callable
    ``name``, as ``object.name``."""
    return [f"{obj.__name__}.{name}" for obj, name in targets
            if not callable(getattr(obj, name, None))]


class TestBenchmarkPatchTargets:
    """A change that deletes or renames a library name the benchmark wraps
    fails here, not in a benchmark run."""

    def test_every_target_resolves(self):
        targets = benchmark_patch_targets()
        assert targets and unresolved(targets) == []

    def test_a_missing_name_is_found(self):
        targets = [(protocol, "server_prepare"), (protocol, "make_candidates")]
        assert unresolved(targets) == ["kimap.protocol.make_candidates"]


def test_a_readme_command_with_a_removed_flag_is_found(capsys):
    stale = "```sh\nkimap game ind random-guess --lambda 16 --hash toy   # old\n```\n"
    [argv] = readme_commands(stale)
    assert argv == ["game", "ind", "random-guess", "--lambda", "16", "--hash", "toy"]
    assert "unrecognized arguments: --hash toy" in parse_error(argv, capsys)
