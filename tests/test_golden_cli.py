"""Golden CLI output: fixed commands must print exactly the recorded bytes.

The fixtures under ``tests/fixtures/golden_cli/`` were captured from the
command lines below, which run the production hash at lambda=16.
``init_run.*`` pins hashing, key scheduling, broadcast order, fault
handling, the database format and the run's printed format: any change to
them shows up there as a byte difference. The ``game_*.txt`` files pin the
games' trial outcomes and printed format, but not the hash: their recorded
wins come out the same on the toy hash, so they print the same bytes on
both.
"""

from pathlib import Path

import pytest

from kimap.cli import main

FIXTURES = Path(__file__).parent / "fixtures" / "golden_cli"

# One drop, one replay and one replace over three tags at lambda=16.
SCHEDULE = "1 4 drop\n5 3 replay 2\n6 4 replace beef:16\n"

GAMES = {
    "ind": ("random-guess",),
    "forward": ("key-knowledge",),
    "backward": ("key-knowledge", "key-knowledge-leaky"),
    "ind2tag": ("random-guess",),
}


def _stdout(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def test_init_then_scheduled_run(tmp_path, capsys):
    db = tmp_path / "db"
    sched = tmp_path / "sched.txt"
    sched.write_text(SCHEDULE)
    out = _stdout(capsys, "init", "--db", str(db), "--lambda", "16", "--tags", "3", "--seed", "9")
    out += _stdout(capsys, "run", "--db", str(db), "--sessions", "9", "--seed", "9",
                   "--schedule", str(sched))
    assert out == (FIXTURES / "init_run.txt").read_text()
    assert (db / "kimap.db").read_bytes() == (FIXTURES / "init_run.db").read_bytes()


@pytest.mark.parametrize("definition", sorted(GAMES))
def test_game_structured(definition, capsys):
    out = "".join(
        _stdout(capsys, "game", definition, d, "--trials", "25", "--lambda", "16",
                "--seed", "3", "--format", "structured")
        for d in GAMES[definition])
    assert out == (FIXTURES / f"game_{definition}.txt").read_text()
