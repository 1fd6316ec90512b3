"""Library outputs against the independently generated fixture.

tests/fixtures/known_answers.json is produced by tools/gen_known_answers.py,
a straight-line script that recomputes every primitive on bare integers and
imports nothing from this package. These tests pin the library to it, and
pin the committed fixture to a fresh regeneration of the script.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from kimap.bits import BitString, HashSpec, Prng, counter_hash, hash2, hash2_layout
from kimap.channel import run_session
from kimap.protocol import keygen, partial_key

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = Path(__file__).resolve().parent / "fixtures" / "known_answers.json"


@pytest.fixture(scope="module")
def fixture():
    return json.loads(FIXTURE.read_text())


def test_hash2_known_answers_lambda8(fixture):
    spec = HashSpec.toy(8)
    for row in fixture["hash2_lambda8"]:
        got = hash2(spec, BitString.from_text(row["left"]), BitString.from_text(row["right"]))
        assert got.to_text() == row["digest"], row


def test_hash2_known_answers_lambda16(fixture):
    spec = HashSpec.toy(16)
    for row in fixture["hash2_lambda16"]:
        got = hash2(spec, BitString.from_text(row["left"]), BitString.from_text(row["right"]))
        assert got.to_text() == row["digest"], row


def test_hash2_production_known_answers(fixture):
    """SHA-256 digests truncated to widths 1-256, through both ways into
    hash2: two bitstrings, and the input pre-encoded as an int."""
    rows = fixture["hash2_production"]
    assert {row["out_bits"] for row in rows} >= {1, 8, 33, 63, 64, 65, 128, 255, 256}
    for row in rows:
        spec = HashSpec.production(row["out_bits"])
        left, right = BitString.from_text(row["left"]), BitString.from_text(row["right"])
        assert hash2(spec, left, right).to_text() == row["digest"], row
        base, left_shift, right_shift, nbytes = hash2_layout(len(left), len(right))
        encoded = base | left.value << left_shift | right.value << right_shift
        assert hash2(spec, encoded, nbytes) == BitString.from_text(row["digest"]).value, row


def test_counter_hash_known_answers(fixture):
    spec = HashSpec.toy(8)
    for row in fixture["counter_hash_lambda8"]:
        got = counter_hash(spec, row["i"], BitString.from_text(row["left"]),
                           BitString.from_text(row["right"]))
        assert got.to_text() == row["digest"], row


def test_counter_hash_production_known_answers(fixture):
    """Production partial keys ``H_i(SK*, k)`` at lambda 16, 64 and 128, at
    the first, a middle and the last counter a record can hold."""
    rows = fixture["counter_hash_production"]
    assert {(row["out_bits"], row["i"]) for row in rows} == {
        (lam, i) for lam in (16, 64, 128) for i in (1, 2**31, 2**32 - 1)}
    for row in rows:
        spec = HashSpec.production(row["out_bits"])
        left, right = BitString.from_text(row["left"]), BitString.from_text(row["right"])
        assert counter_hash(spec, row["i"], left, right).to_text() == row["digest"], row
        assert partial_key(spec, row["i"], left, right).to_text() == row["digest"], row


def test_full_transcript_lambda8(fixture):
    tr = fixture["transcript_lambda8"]
    spec = HashSpec.toy(tr["lambda"])
    server, tags = keygen(tr["lambda"], 1, Prng(tr["seed"], 0))

    assert server.master.to_text() == tr["master"]
    assert tags[0].key.to_text() == tr["k1"]
    assert partial_key(spec, 1, server.master, tags[0].key).to_text() == tr["x1"]

    t = run_session(server, tags[0], [], spec, label="t001")
    assert t.accepted and t.tag_updated
    assert t.x_s.x_s.to_text() == tr["x_s"]
    assert t.x_t.x_t.to_text() == tr["x_t"]
    sigma_bits, delta_bits, (sigma,), (delta,) = t.broadcast
    assert BitString(sigma, sigma_bits).to_text() == tr["sigma"]
    assert BitString(delta, delta_bits).to_text() == tr["delta"]
    assert t.sigma_prime.sigma_prime.to_text() == tr["sigma_prime"]
    assert tags[0].key.to_text() == tr["k2"]
    assert server.records["t001"].key_current.to_text() == tr["k2"]

    # the session key is reconstructible from the fixture pieces
    k1 = BitString.from_text(tr["k1"])
    x1 = BitString.from_text(tr["x1"])
    sk = k1.split()[0] + x1.split()[0]
    assert sk.to_text() == tr["sk"]


def test_committed_fixture_matches_regeneration():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "gen_known_answers.py"), "--print"],
        capture_output=True, check=True)
    assert out.stdout == FIXTURE.read_bytes()


@pytest.mark.parametrize("argv, code, writes", [
    ((), 0, True), (("--print",), 0, False), (("--help",), 0, False),
    (("--bogus",), 2, False), (("--prin",), 2, False),
], ids=["no-argument", "print", "help", "bogus", "abbreviated-print"])
def test_generator_writes_the_fixture_only_without_arguments(tmp_path, argv, code, writes):
    """A copy of the script writes ../tests/fixtures/known_answers.json
    beside itself. The tracked fixture's bytes cannot show a stray rewrite:
    with the kernel unchanged, it rewrites equal bytes."""
    (tmp_path / "tools").mkdir()
    script = tmp_path / "tools" / "gen_known_answers.py"
    script.write_bytes((ROOT / "tools" / "gen_known_answers.py").read_bytes())
    proc = subprocess.run([sys.executable, str(script), *argv], capture_output=True, check=False)
    assert proc.returncode == code
    written = tmp_path / "tests" / "fixtures" / "known_answers.json"
    assert written.exists() == writes
    if writes:
        assert written.read_bytes() == FIXTURE.read_bytes()
