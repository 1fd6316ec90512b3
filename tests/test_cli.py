"""Command-line surface: flags, formats, exit codes, determinism."""

import contextlib
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import kimap
from kimap import channel, cli
from kimap.bits import HashSpec
from kimap.cli import DEFAULT_SEED, main, parse_schedule
from kimap.channel import ScheduleError
from kimap.costs import CostParams
from kimap.games import DEFINITIONS, Definition, GameConfig
from kimap.protocol import BroadcastAuth
from kimap.storage import dump_database, load_database


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def db_dir(tmp_path):
    d = tmp_path / "db"
    assert run_cli("init", "--db", str(d), "--tags", "3", "--seed", "9",
                   "--lambda", "16") == 0
    return d


def set_first_counter(d, counter):
    """Rewrite t001's counter in ``d``'s database; return its new line."""
    lines = (d / "kimap.db").read_text().splitlines()
    assert lines[1].startswith("v1 t001 1 ")
    lines[1] = lines[1].replace(" 1 ", f" {counter} ", 1)
    (d / "kimap.db").write_text("\n".join(lines) + "\n")
    return lines[1]


def _files(files):
    """A setup that writes each ``files`` entry, text or bytes, to its path
    under the test's directory, the parent of the database directory."""
    def setup(d, monkeypatch):
        for name, data in files.items():
            path = d.parent / name
            path.write_bytes(data if isinstance(data, bytes) else data.encode())
    return setup


def _schedule(text):
    return _files({"sched.txt": text})


def _counter(counter):
    """A setup that rewrites t001's counter to ``counter``."""
    return lambda d, monkeypatch: set_first_counter(d, counter)


def _env_seed(text):
    """A setup that sets KIMAP_SEED to ``text``."""
    def setup(d, monkeypatch):
        monkeypatch.setenv("KIMAP_SEED", text)
    return setup


def _fail_save(d, monkeypatch):
    def save_database(*_):
        raise OSError("disk full")
    monkeypatch.setattr(cli, "save_database", save_database)


def _replace(line, field):
    """A row whose schedule replaces a flight with an 8-bit ``field``."""
    return (_schedule(f"{line}\n"), ("run", "--db", "DB", "--schedule", "SCHED"),
            f"SCHED:1: replacement {field} ad:8 is 8 bits, not 16")


# a database and master key wider than any hash
_WIDE_DB = _files({"db/kimap.db": f"kimapdb v1 lambda=258\nv1 t001 1 {'0' * 65}:258\n",
                "db/master.key": f"{'0' * 65}:258\n"})

# (setup, argv, the message stderr holds after "kimap: "). In argv and the
# message, DB names the provisioned database directory, SCHED a schedule
# file beside it, and TMP the directory that holds both.
EXIT_2_CASES = {
    "init-over-existing-db": (None, ("init", "--db", "DB"),
                              "refusing to overwrite DB (use --force)"),
    "init-odd-lambda": (None, ("init", "--db", "DB/fresh", "--lambda", "63"),
                        "key width must be even and >= 8, got 63"),
    "init-lambda-above-any-hash": (None, ("init", "--db", "DB", "--lambda", "300", "--force"),
                                   "hash output width must be 1..256 bits, got 300"),
    "init-fresh-lambda-above-any-hash": (None, ("init", "--db", "DB/fresh", "--lambda", "300"),
                                         "hash output width must be 1..256 bits, got 300"),
    "init-db-path-is-a-file": (_files({"afile": "keep\n"}), ("init", "--db", "TMP/afile"),
                               "[Errno 17] File exists: 'TMP/afile'"),
    "run-missing-db": (None, ("run", "--db", "DB/nope"),
                       "[Errno 2] No such file or directory: 'DB/nope/kimap.db'"),
    "run-db-path-is-a-file": (_files({"afile": "keep\n"}), ("run", "--db", "TMP/afile"),
                              "[Errno 20] Not a directory: 'TMP/afile/kimap.db'"),
    "run-schedule-path-is-a-directory": (None, ("run", "--db", "DB", "--schedule", "TMP"),
                                         "[Errno 21] Is a directory: 'TMP'"),
    "run-zero-sessions": (None, ("run", "--db", "DB", "--sessions", "0"),
                          "sessions must be >= 1, got 0"),
    "run-bad-seed": (_env_seed("abc"), ("run", "--db", "DB", "--sessions", "1"),
                     "KIMAP_SEED 'abc' is not decimal digits"),
    "run-seed-only-int-takes": (_env_seed(" +1_0"), ("run", "--db", "DB", "--sessions", "1"),
                                "KIMAP_SEED ' +1_0' is not decimal digits"),
    "run-seed-leading-zero": (_env_seed("09"), ("run", "--db", "DB", "--sessions", "1"),
                              "KIMAP_SEED '09' has a leading zero"),
    "run-unrecorded-replay": (_schedule("1 3 replay 5\n"),
                              ("run", "--db", "DB", "--sessions", "3", "--schedule", "SCHED"),
                              "SCHED:1: replay source 5 is not before session 1"),
    "run-own-session-replay": (_schedule("1 3 replay 1\n"),
                               ("run", "--db", "DB", "--schedule", "SCHED"),
                               "SCHED:1: replay source 1 is not before session 1"),
    "run-aborted-replay-source": (_schedule("1 2 drop\n2 3 replay 1\n"),
                                  ("run", "--db", "DB", "--sessions", "2", "--schedule", "SCHED"),
                                  "replay source session 1 flight 3 was never recorded"),
    "run-duplicate-schedule-line": (_schedule("1 4 drop\n1 4 drop\n"),
                                    ("run", "--db", "DB", "--schedule", "SCHED"),
                                    "SCHED:2: duplicate action for session 1 flight 4"),
    "run-two-field-schedule-line": (_schedule("1 4\n"),
                                    ("run", "--db", "DB", "--schedule", "SCHED"),
                                    "SCHED:1: expected '<session> <flight> <action...>'"),
    "run-session-zero": (_schedule("0 4 drop\n"), ("run", "--db", "DB", "--schedule", "SCHED"),
                         "SCHED:1: session must be >= 1, got 0"),
    "run-unknown-schedule-action": (_schedule("1 4 explode\n"),
                                    ("run", "--db", "DB", "--schedule", "SCHED"),
                                    "SCHED:1: unknown schedule action 'explode'"),
    "run-replace-on-flight-9": (_schedule("1 9 replace ab:16\n"),
                                ("run", "--db", "DB", "--schedule", "SCHED"),
                                "SCHED:1: flight must be 1-4, got 9"),
    "run-replace-x_s-of-8-bits": _replace("1 1 replace ad:8", "x_s"),
    "run-replace-x_t-of-8-bits": _replace("1 2 replace ad:8", "x_t"),
    "run-replace-sigma-of-8-bits": _replace("1 3 replace ad:8 ef:8", "sigma"),
    "run-replace-delta-of-8-bits": _replace("1 3 replace beef:16 ad:8", "delta"),
    "run-replace-deltas-of-16-and-8-bits": _replace("1 3 replace beef:16 beef:16 beef:16 ad:8",
                                                    "delta"),
    "run-replace-sigma_prime-of-8-bits": _replace("2 4 replace ad:8", "sigma_prime"),
    "run-replace-uppercase": (_schedule("1 3 replace DEAD:16 beef:16\n"),
                              ("run", "--db", "DB", "--schedule", "SCHED"),
                              "SCHED:1: bitstring text 'DEAD:16' is not in canonical form 'dead:16'"),
    "run-underscore-flight": (_schedule("1 0_4 drop\n"),
                              ("run", "--db", "DB", "--schedule", "SCHED"),
                              "SCHED:1: flight '0_4' is not decimal digits"),
    "run-corrupt-record": (_files({"db/kimap.db": "kimapdb v1 lambda=16\nv1 broken\n"}),
                           ("run", "--db", "DB"),
                           "DB/kimap.db:2: expected 'v1 <label> <counter> <key> [<prev>]'"),
    "run-underscore-counter": (_counter("1_0"), ("run", "--db", "DB"),
                               "DB/kimap.db:2: counter '1_0' is not decimal digits"),
    "run-leading-zero-counter": (_counter("01"), ("run", "--db", "DB"),
                                 "DB/kimap.db:2: counter '01' has a leading zero"),
    "run-counter-wider-than-the-hash-binds": (_counter(2**32), ("run", "--db", "DB"),
                                              "DB/kimap.db:2: counter 4294967296 does not fit "
                                              "in 32 bits"),
    "run-db-lambda-keygen-rejects": (_files({"db/kimap.db": "kimapdb v1 lambda=7\nv1 t001 1 00:7\n",
                                             "db/master.key": "00:7\n"}),
                                     ("run", "--db", "DB"),
                                     "DB/kimap.db:1: key width must be even and >= 8, got 7"),
    "run-db-wider-than-any-hash": (_WIDE_DB, ("run", "--db", "DB"),
                                   "hash output width must be 1..256 bits, got 258"),
    "run-narrow-master": (_files({"db/master.key": "ab:8\n"}), ("run", "--db", "DB"),
                          "DB/master.key:1: master key width 8 != database lambda 16"),
    "run-save-fails": (_fail_save, ("run", "--db", "DB"), "disk full"),
    "run-db-not-utf8": (_files({"db/kimap.db": b"\xffkimapdb v1 lambda=16\n"}),
                        ("run", "--db", "DB"),
                        "DB/kimap.db:1: not UTF-8 text: can't decode byte 0xff"),
    "run-master-not-utf8": (_files({"db/master.key": b"\xff:16\n"}), ("run", "--db", "DB"),
                            "DB/master.key:1: not UTF-8 text: can't decode byte 0xff"),
    "run-schedule-not-utf8": (_schedule(b"1 4 drop \xff\n"),
                              ("run", "--db", "DB", "--schedule", "SCHED"),
                              "SCHED:1: not UTF-8 text: can't decode byte 0xff"),
    "game-unknown-distinguisher": (None, ("game", "ind", "psychic"),
                                   "unknown distinguisher 'psychic' (have: key-knowledge, "
                                   "key-knowledge-leaky, random-guess)"),
    "game-odd-lambda": (None, ("game", "ind", "random-guess", "--lambda", "63", "--trials", "10"),
                        "key width must be even and >= 8, got 63"),
    "game-zero-trials": (None, ("game", "ind", "random-guess", "--trials", "0"),
                         "need n >= 1 and trials >= 1"),
    "cost-odd-width": (None, ("cost", "--lambda", "7"), "key width must be even and >= 8, got 7"),
    "cost-zero-batch": (None, ("cost", "--tags", "0"), "batch_tags must be positive"),
    "cost-zero-clock": (None, ("cost", "--clock-hz", "0"), "tag_clock_hz must be positive"),
    "lemma1-k-too-large": (None, ("lemma1", "--k", "20"),
                           "k must be in 1..16 (the check is exhaustive)"),
}


def _tree(root):
    """Every path under ``root``, with each file's bytes."""
    return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


@pytest.mark.parametrize("case", list(EXIT_2_CASES))
def test_library_errors_exit_2_and_leave_files(db_dir, monkeypatch, capsys, case):
    """Bad input exits 2 with one ``kimap:`` line, prints nothing to stdout,
    and creates, changes and removes no file or directory."""
    setup, argv, message = EXIT_2_CASES[case]
    if setup is not None:
        setup(db_dir, monkeypatch)
    before = _tree(db_dir.parent)
    paths = {"DB": str(db_dir), "SCHED": str(db_dir.parent / "sched.txt"),
             "TMP": str(db_dir.parent)}
    def place(text):
        return re.sub("DB|SCHED|TMP", lambda m: paths[m[0]], text)
    capsys.readouterr()
    assert run_cli(*map(place, argv)) == 2
    assert capsys.readouterr() == ("", f"kimap: {place(message)}\n")
    assert _tree(db_dir.parent) == before


def test_library_bug_is_not_a_config_error(db_dir, monkeypatch):
    """Only bad input exits 2: a ValueError from a broken invariant inside
    the library propagates out of ``main``, so it ends in a traceback."""
    def run_session(*_, **__):
        raise ValueError("broken invariant")
    monkeypatch.setattr(channel, "run_session", run_session)
    with pytest.raises(ValueError, match="broken invariant"):
        run_cli("run", "--db", str(db_dir))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 5")
def test_restart_changes_no_outcome(tmp_path, capsys):
    """``run --sessions 3`` and ``run --sessions 2`` then ``run --sessions 1``
    on a copy of the same database give the same per-session outcomes and
    the same final desynchronized count."""
    whole, split = tmp_path / "whole", tmp_path / "split"
    assert run_cli("init", "--db", str(whole), "--tags", "1", "--seed", "9", "--lambda", "16") == 0
    shutil.copytree(whole, split)
    sched = tmp_path / "sched.txt"
    sched.write_text("1 4 drop\n2 4 drop\n")
    capsys.readouterr()

    def run(d, sessions, *schedule):
        assert run_cli("run", "--db", str(d), "--sessions", str(sessions), "--seed", "9",
                       *schedule) == 0
        *transcripts, summary = capsys.readouterr().out.splitlines()
        return [t.rsplit(" server=", 1)[1] for t in transcripts], summary.rsplit(" ", 1)[1]

    outcomes, desynced = run(whole, 3, "--schedule", str(sched))
    assert (outcomes, desynced) == (["rejected"] * 3, "desynced=1")
    first, _ = run(split, 2, "--schedule", str(sched))
    last, split_desynced = run(split, 1)
    assert (first + last, split_desynced) == (outcomes, desynced)


def test_closed_stdout_exits_1_without_message(db_dir):
    """``kimap run ... | head -1``: the reader of stdout leaves after one
    line. That is no configuration error, so there is no ``kimap:`` line and
    the exit code is 1, as for Python's own EPIPE exit."""
    src = Path(kimap.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    # 3000 transcript lines overflow any pipe buffer, so a write meets the
    # closed pipe.
    proc = subprocess.Popen(
        [sys.executable, "-m", "kimap", "run", "--db", str(db_dir), "--sessions", "3000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"transcript session=1 ")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err == b""


class TestInit:
    def test_creates_records(self, db_dir, capsys):
        lam, records = load_database(db_dir / "kimap.db")
        assert lam == 16 and len(records) == 3
        assert (db_dir / "master.key").exists()

    def test_prints_labels(self, tmp_path, capsys):
        run_cli("init", "--db", str(tmp_path / "x"), "--tags", "2", "--seed", "1")
        out = capsys.readouterr().out.split()
        assert out == ["t001", "t002"]

    def test_force_overwrite_byte_identical(self, db_dir):
        before = (db_dir / "kimap.db").read_bytes(), (db_dir / "master.key").read_bytes()
        assert run_cli("init", "--db", str(db_dir), "--tags", "3", "--seed", "9",
                       "--lambda", "16", "--force") == 0
        after = (db_dir / "kimap.db").read_bytes(), (db_dir / "master.key").read_bytes()
        assert before == after


class TestRun:
    def test_honest_sessions_all_accepted(self, db_dir, capsys):
        code = run_cli("run", "--db", str(db_dir), "--sessions", "100", "--seed", "9")
        out = capsys.readouterr().out
        assert code == 0
        assert "summary sessions=100 accepted=100 rejected=0" in out
        assert out.count("transcript session=") == 100

    def test_drop_once_rejected_plus_recovered(self, db_dir, tmp_path, capsys):
        sched = tmp_path / "sched.txt"
        sched.write_text("1 4 drop\n")
        code = run_cli("run", "--db", str(db_dir), "--sessions", "6", "--seed", "9",
                       "--schedule", str(sched))
        out = capsys.readouterr().out
        assert code == 0
        assert "accepted=5 rejected=1" in out
        assert "recovered=1" in out and "desynced=0" in out

    def test_drop_twice_flags_desync(self, db_dir, tmp_path, capsys):
        # three tags round-robin: sessions 1 and 4 belong to the same tag
        sched = tmp_path / "sched.txt"
        sched.write_text("1 4 drop\n4 4 drop\n")
        run_cli("run", "--db", str(db_dir), "--sessions", "6", "--seed", "9",
                "--schedule", str(sched))
        out = capsys.readouterr().out
        assert "desynced=1" in out

    def test_strict_exit_code(self, db_dir, tmp_path, capsys):
        sched = tmp_path / "sched.txt"
        sched.write_text("1 4 drop\n")
        assert run_cli("run", "--db", str(db_dir), "--sessions", "2", "--seed", "9",
                       "--schedule", str(sched), "--strict") == 1

    def test_db_rewritten_and_round_trips(self, db_dir, capsys):
        run_cli("run", "--db", str(db_dir), "--sessions", "9", "--seed", "9")
        lam, records = load_database(db_dir / "kimap.db")
        assert all(rec.counter == 4 for rec in records.values())
        assert dump_database(lam, records) == (db_dir / "kimap.db").read_text()

    def test_exhausted_counter_is_rejected_and_saved_unchanged(self, tmp_path, capsys):
        d = tmp_path / "db"
        assert run_cli("init", "--db", str(d), "--lambda", "16", "--tags", "2") == 0
        exhausted = set_first_counter(d, 2**32 - 1)
        capsys.readouterr()
        assert run_cli("run", "--db", str(d), "--sessions", "4") == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            "summary sessions=4 accepted=2 rejected=2 aborted=0 recovered=0 desynced=0")
        assert (d / "kimap.db").read_text().splitlines()[1] == exhausted

    def test_identical_invocations_byte_identical(self, tmp_path, capsys):
        outputs = []
        for name in ("a", "b"):
            d = tmp_path / name
            run_cli("init", "--db", str(d), "--tags", "2", "--seed", "77", "--lambda", "16")
            capsys.readouterr()
            run_cli("run", "--db", str(d), "--sessions", "7", "--seed", "77")
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert (tmp_path / "a" / "kimap.db").read_bytes() == (tmp_path / "b" / "kimap.db").read_bytes()


class TestGame:
    def test_table_output(self, capsys):
        run_cli("game", "backward", "key-knowledge", "--trials", "100", "--lambda", "16",
                "--seed", "3")
        out = capsys.readouterr().out
        assert "advantage" in out and "strategy   key-knowledge" in out

    def test_leaky_control_wins(self, capsys):
        run_cli("game", "backward", "key-knowledge-leaky", "--trials", "100",
                "--lambda", "16", "--seed", "3", "--format", "structured")
        out = capsys.readouterr().out
        wins = int(next(f for f in out.split() if f.startswith("wins=")).split("=")[1])
        assert wins >= 99

    def test_two_tag_game_is_one_table_row(self, monkeypatch, capsys):
        monkeypatch.setitem(DEFINITIONS, "link2tag",
                            Definition(DEFINITIONS["ind"].oracles, 0, 2))
        assert run_cli("game", "link2tag", "random-guess", "--trials", "20", "--lambda", "16",
                       "--seed", "4", "--format", "structured") == 0
        out = capsys.readouterr().out
        assert out.startswith("gameresult definition=link2tag distinguisher=random-guess")
        assert " n=3 " in out and " trials=20 " in out

    def test_budget_and_trial_defaults_are_game_config_defaults(self, monkeypatch, capsys):
        """``game`` sets no budget, and hashes with production at the key width."""
        seen, run_game = [], cli.run_game
        monkeypatch.setattr(cli, "run_game", lambda name, cfg, d, spec:
                            seen.append((cfg, spec)) or run_game(name, cfg, d, spec))
        assert run_cli("game", "ind", "random-guess", "--lambda", "16") == 0
        [(cfg, spec)] = seen
        assert cfg == GameConfig(lam=16, n=2, seed=cfg.seed)
        assert spec == HashSpec.production(16)


class TestCost:
    def test_default_figures(self, capsys):
        assert run_cli("cost", "--format", "structured") == 0
        out = capsys.readouterr().out
        assert "total_ms=3.04" in out and "batch_serial_s=1.28" in out
        assert "budget pass" in out

    def test_batch_flag(self, capsys):
        run_cli("cost", "--tags", "200", "--format", "structured")
        assert "batch_tags=200 batch_serial_s=1.28" in capsys.readouterr().out

    def test_wider_keys_recomputed(self, capsys):
        run_cli("cost", "--lambda", "128", "--format", "structured")
        out = capsys.readouterr().out
        assert "t2r_ms=0.40" in out and "r2t_ms=3.05" in out

    def test_inflated_ops_fail_budget(self, capsys):
        run_cli("cost", "--hash-cycles", "330")
        assert "budget fail" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, params", [
        ((), CostParams()),
        (("--lambda", "32", "--hash-cycles", "2", "--clock-hz", "3", "--t2r-bps", "4",
          "--r2t-bps", "5", "--serial-bps", "6", "--candidates", "7", "--tags", "8"),
         CostParams(32, 2, 3, 4, 5, 6, 7, 8)),
    ], ids=["defaults", "every-flag"])
    def test_flags_set_their_fields(self, monkeypatch, capsys, argv, params):
        seen, compute_cost = [], cli.compute_cost
        monkeypatch.setattr(cli, "compute_cost",
                            lambda p: seen.append(p) or compute_cost(p))
        assert run_cli("cost", *argv) == 0
        assert seen == [params]


class TestLemma1:
    def test_k8(self, capsys):
        assert run_cli("lemma1", "--k", "8", "--seed", "1") == 0
        assert "distinct=256/256 bijection=yes" in capsys.readouterr().out

    def test_k1_pairs(self, capsys):
        run_cli("lemma1", "--k", "1", "--mask", "1:1")
        out = capsys.readouterr().out
        assert "pair x=1 y=0" in out and "pair x=0 y=1" in out

    MASK_REASONS = {"zz:8": "invalid literal for int() with base 16: 'zz'",
                    "0ab:8": "bitstring text '0ab:8' is not in canonical form 'ab:8'",
                    "1ff:8": "value 0x1ff does not fit in 8 bits",
                    "ff": "missing ':<len>' in bitstring text 'ff'",
                    "ab": "missing ':<len>' in bitstring text 'ab'",
                    "+1f:8": "bitstring text '+1f:8' is not '<hex digits>:<decimal digits>'",
                    "1f: 8": "bitstring text '1f: 8' is not '<hex digits>:<decimal digits>'"}

    @pytest.mark.parametrize("mask", list(MASK_REASONS))
    def test_malformed_mask_is_usage_error(self, capsys, mask):
        """argparse reports the parser's reason, not the parser's name."""
        with pytest.raises(SystemExit) as exc:
            run_cli("lemma1", "--k", "8", "--mask", mask)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"error: argument --mask: {self.MASK_REASONS[mask]}" in captured.err
        assert "from_text" not in captured.err and captured.out == ""


# Each subcommand parses only the flags its handler reads, spelled in full,
# so a flag its handler would ignore, or an abbreviation of one it reads, is
# a usage error.
UNREAD_FLAGS = [
    ("init", "--hash", "toy"), ("init", "--format", "structured"),
    ("run", "--lambda", "16"), ("run", "--format", "structured"),
    ("cost", "--seed", "1"), ("cost", "--hash", "toy"),
    ("lemma1", "--lambda", "16"), ("lemma1", "--hash", "toy"),
    ("lemma1", "--format", "structured"),
    ("game", "--r1", "5"), ("game", "--rb", "5"),
    ("run", "--hash", "toy"), ("game", "--hash", "toy"),
    ("game", "--e1", "5"), ("game", "--e2", "5"),
    ("cost", "--hash-ops", "4"), ("cost", "--hash", "5"),
]


# Integer text that only ``int()`` takes (a sign, ``_``, a space, another
# script's digits) is a usage error that names the flag.
NON_DECIMAL_FLAGS = [
    ("init", "--tags", "0_3"), ("init", "--lambda", "1_6"), ("init", "--seed", " 9"),
    ("run", "--sessions", "+1"), ("run", "--seed", "-5"),
    ("game", "--trials", "-1"), ("game", "--tags", "\u0663"),
    ("cost", "--candidates", "1 "), ("lemma1", "--k", "\uff18"),
]


def with_required(argv, db="D", fresh="F"):
    """``argv`` with its subcommand's required arguments put before the flags
    (argparse would otherwise take a flag's value as game's definition)."""
    required = {"init": ["--db", fresh], "run": ["--db", db], "game": ["ind", "random-guess"]}
    return [argv[0], *required.get(argv[0], []), *argv[1:]]


class TestFlags:
    @pytest.mark.parametrize("argv", UNREAD_FLAGS)
    def test_unread_flag_is_usage_error(self, db_dir, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(*with_required(argv, str(db_dir), str(tmp_path / "fresh")))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: " in err and argv[1] in err
        assert not (tmp_path / "fresh").exists()

    @pytest.mark.parametrize("argv", NON_DECIMAL_FLAGS, ids=" ".join)
    def test_integer_text_only_int_takes_is_usage_error(self, db_dir, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(*with_required(argv, str(db_dir), str(tmp_path / "fresh")))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {argv[1]}: value {argv[2]!r} is not decimal digits" in err
        assert not (tmp_path / "fresh").exists()


# A parser built for argv[0] alone must parse argv as the full parser does.
PARSER_ARGV = [
    *([name, "--help"] for name in cli.COMMANDS),
    *(with_required(argv) for argv in UNREAD_FLAGS + NON_DECIMAL_FLAGS),
    ["run", "--db", "D", "--sessions", "abc"],
    *(["lemma1", "--mask", mask] for mask in TestLemma1.MASK_REASONS),
    ["run"],
    ["run", "--db", "D", "--bogus"],
    ["game", "bogus", "random-guess"],
    ["init", "--db", "D", "--lambda", "16", "--tags", "2", "--force"],
    ["run", "--db", "D", "--sessions", "3", "--schedule", "S", "--strict"],
    ["game", "forward", "key-knowledge", "--trials", "5", "--format", "structured"],
    ["cost", "--tags", "7", "--candidates", "3"],
    ["lemma1", "--k", "4", "--mask", "a:4", "--seed", "3"],
]


class TestParser:
    @staticmethod
    def parse(parser, argv, capsysbinary):
        """The Namespace, or the exit code, with what the parse printed."""
        capsysbinary.readouterr()
        try:
            result = parser.parse_args(argv)
        except SystemExit as exc:
            result = exc.code
        return result, capsysbinary.readouterr()

    @pytest.mark.parametrize("argv", PARSER_ARGV, ids=" ".join)
    def test_one_subcommand_parses_as_all_five(self, capsysbinary, argv):
        one = self.parse(cli.build_parser(argv[0]), argv, capsysbinary)
        assert one == self.parse(cli.build_parser(), argv, capsysbinary)

    def test_one_subcommand_parser_refuses_the_others(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser("run").parse_args(["cost"])
        assert exc.value.code == 2
        usage, error = capsys.readouterr().err.splitlines()
        assert usage == "usage: kimap [-h] {init,run,game,cost,lemma1} ..."
        choices = error.partition("invalid choice: 'cost' (choose from ")[2]
        assert "run" in choices and "cost" not in choices

    def test_main_builds_a_parser_per_call_for_argv0(self, db_dir, monkeypatch, capsys):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda command=None: built.append(command)
                            or build(command))
        for argv in (["run", "--db", str(db_dir), "--sessions", "1"], ["cost"], ["cost"], []):
            with contextlib.suppress(SystemExit):
                main(argv)
        assert built == ["run", "cost", "cost", None]

    def test_main_reads_sys_argv(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["kimap", "lemma1", "--k", "1", "--mask", "1:1"])
        assert main() == 0
        assert "pair x=1 y=0" in capsys.readouterr().out
        monkeypatch.setattr(sys, "argv", ["kimap", "run", "--db", "x", "--bogus"])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[0] == "usage: kimap [-h] {init,run,game,cost,lemma1} ..."
        assert "unrecognized arguments: --bogus" in err

    def test_python_m_kimap_runs_main(self):
        """``python -m kimap`` is the one module entry point, and needs
        nothing beyond the stdlib (-S skips site-packages)."""
        src = Path(kimap.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-S", "-m", "kimap", "lemma1", "--k", "1", "--mask", "1:1"],
            capture_output=True, text=True, check=False,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert (proc.returncode, proc.stderr) == (0, "")
        assert "pair x=1 y=0" in proc.stdout.splitlines()


class TestSeedResolution:
    def test_env_seed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("KIMAP_SEED", "1234")
        run_cli("init", "--db", str(tmp_path / "a"), "--tags", "1")
        a = (tmp_path / "a" / "kimap.db").read_bytes()
        monkeypatch.delenv("KIMAP_SEED")
        run_cli("init", "--db", str(tmp_path / "b"), "--tags", "1", "--seed", "1234")
        b = (tmp_path / "b" / "kimap.db").read_bytes()
        assert a == b

    def test_flag_beats_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("KIMAP_SEED", "1234")
        run_cli("init", "--db", str(tmp_path / "a"), "--tags", "1", "--seed", str(DEFAULT_SEED))
        monkeypatch.delenv("KIMAP_SEED")
        run_cli("init", "--db", str(tmp_path / "b"), "--tags", "1")
        assert (tmp_path / "a" / "kimap.db").read_bytes() == (tmp_path / "b" / "kimap.db").read_bytes()


class TestScheduleParsing:
    def test_replace_payload(self, tmp_path):
        f = tmp_path / "s.txt"
        f.write_text("# tamper flight 3 with one candidate\n2 3 replace dead:16 beef:16\n")
        sched = parse_schedule(str(f), 16)
        assert len(sched.actions) == 1
        assert sched.actions[0].kind == "replace"
        assert sched.actions[0].payload == BroadcastAuth(16, 16, (0xDEAD,), (0xBEEF,))

    def test_replay_line(self, tmp_path):
        f = tmp_path / "s.txt"
        f.write_text("5 3 replay 4\n")
        a = parse_schedule(str(f), 16).actions[0]
        assert a.kind == "replay" and a.source_session == 4 and a.session_seq == 5

    def test_bad_field_count(self, tmp_path):
        f = tmp_path / "s.txt"
        f.write_text("1 3 replace dead:16\n")
        with pytest.raises(ScheduleError):
            parse_schedule(str(f), 16)

    @pytest.mark.parametrize("line", ["1 4 drop junk", "5 3 replay 4 9", "5 3 replay"])
    def test_stray_or_missing_fields_rejected(self, tmp_path, line):
        f = tmp_path / "s.txt"
        f.write_text(f"2 4 drop\n{line}\n")
        with pytest.raises(ScheduleError) as err:
            parse_schedule(str(f), 16)
        assert str(err.value).startswith(f"{f}:2: wrong field count for ")

    @pytest.mark.parametrize("line", ["1 9 drop", "1 9 replay 1", "1 9 replace ab:16"])
    def test_unknown_flight_named_for_every_action(self, tmp_path, line):
        f = tmp_path / "s.txt"
        f.write_text(f"{line}\n")
        with pytest.raises(ScheduleError) as err:
            parse_schedule(str(f), 16)
        assert str(err.value) == f"{f}:1: flight must be 1-4, got 9"

    def test_payload_text_only_int_takes_is_rejected(self, tmp_path):
        f = tmp_path / "s.txt"
        f.write_text("1 4 drop\n2 3 replace 0xdead:16 beef:16\n")
        with pytest.raises(ScheduleError) as err:
            parse_schedule(str(f), 16)
        assert str(err.value) == (f"{f}:2: bitstring text '0xdead:16' is not "
                                  "'<hex digits>:<decimal digits>'")

    @pytest.mark.parametrize("line, message", [
        ("+1 4 drop", "session '+1' is not decimal digits"),
        ("1_0 4 drop", "session '1_0' is not decimal digits"),
        ("1 0_4 drop", "flight '0_4' is not decimal digits"),
        ("1 ٤ drop", "flight '٤' is not decimal digits"),
        ("3 3 replay +1", "replay source '+1' is not decimal digits"),
        ("3 3 replay 0_1", "replay source '0_1' is not decimal digits"),
        ("3 3 replay １", "replay source '１' is not decimal digits"),
        ("01 4 drop", "session '01' has a leading zero"),
    ], ids=["session-signed", "session-underscore", "flight-underscore",
            "flight-non-ascii-digit", "source-signed", "source-underscore",
            "source-non-ascii-digit", "session-leading-zero"])
    def test_integer_text_only_int_takes_is_rejected(self, tmp_path, line, message):
        """A session, flight or replay source is ASCII decimal digits with no
        leading zero: ``int()`` would also take a sign, ``_``, another
        script's digits or a leading zero."""
        f = tmp_path / "s.txt"
        f.write_text(f"1 4 drop\n{line}\n")
        with pytest.raises(ScheduleError) as err:
            parse_schedule(str(f), 16)
        assert str(err.value) == f"{f}:2: {message}"

    def test_error_carries_line_number(self, tmp_path):
        f = tmp_path / "s.txt"
        f.write_text("1 4 drop\nbogus line here\n")
        with pytest.raises(ScheduleError) as err:
            parse_schedule(str(f), 16)
        assert ":2:" in str(err.value)
