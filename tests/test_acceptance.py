"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each check lives in one place. A criterion is checked here and nowhere
else; a unit test elsewhere checks only what no criterion does. A call the
library refuses is one row of its module's ``REFUSED_CALLS`` table, a
command line that ``kimap`` refuses with a ``kimap:`` line one row of
``EXIT_2_CASES`` in ``tests/test_cli.py``, and refused kimapdb or
master-key text one row of ``MALFORMED_DATABASES`` or of the master table
in ``tests/test_storage.py``.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Statistical criteria (7-9) run 10,000-trial games under fixed
seeds, so they are deterministic regressions of properties that hold for
an overwhelming fraction of seeds.
"""

import copy
import dataclasses
import json
import time
from pathlib import Path

from kimap.bits import BitString, HashSpec, Prng
from kimap.channel import AdversaryAction, FaultSchedule, World, run_session
from kimap.costs import CostParams, check_budget, compute_cost
from kimap.games import (
    GameConfig,
    KeyKnowledge,
    RandomGuess,
    lemma1_bijection_check,
    new_world,
    run_game,
)
from kimap.protocol import (
    BroadcastAuth,
    keygen,
    server_begin,
    server_finalize,
    server_prepare,
    tag_respond_nonce,
    tag_verify_and_respond,
)

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "known_answers.json"
GAME_SEED = 1
TRIALS = 10_000


def report(n: int, text: str) -> None:
    print(f"\n[acceptance] criterion {n:>2} PASS: {text}")


def test_criterion_01_honest_run_synchronization():
    spec = HashSpec.production(64)
    server, tags = keygen(64, 3, Prng(1001, 0))
    world = World(server, tags, spec)
    started = time.monotonic()
    for seq in range(1, 1001):
        idx = (seq - 1) % 3
        t = world.session(idx)
        assert t.accepted, f"session {seq} rejected"
        assert tags[idx].key == server.records[t.label].key_current, \
            f"keys diverged after session {seq}"
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"1000 sessions took {elapsed:.2f}s"
    report(1, f"1000 chained sessions, 3 tags, 64-bit production hash, "
              f"all accepted and synchronized in {elapsed:.2f}s")


def test_criterion_02_tag_operation_budget():
    spec = HashSpec.production(64)

    # single candidate: 4 hash-equivalents (1 PRNG draw + 3 hashes), 1 XOR
    server, tags = keygen(64, 1, Prng(1002, 0))
    tag = tags[0]
    h0, p0, x0 = tag.meter.snapshot()
    t = run_session(server, tag, [], spec, label="t001")
    assert t.accepted
    h1, p1, x1 = tag.meter.snapshot()
    assert (h1 - h0) + (p1 - p0) == 4
    assert x1 - x0 == 1

    # c candidates: exactly 3 + c hash-equivalents across the whole session
    checked = []
    for n_tags in (2, 4):
        server, tags = keygen(64, n_tags, Prng(1002 + n_tags, 0))
        tag = tags[0]
        h0, p0, _ = tag.meter.snapshot()
        ch = server_begin(server)
        nonce = tag_respond_nonce(tag)
        bc, pending = server_prepare(server, ch.x_s, nonce.x_t, spec)
        c = len(bc.sigmas)
        ta = tag_verify_and_respond(tag, ch.x_s, bc, spec)
        h1, p1, _ = tag.meter.snapshot()
        assert server_finalize(server, pending, ta).accepted
        assert (h1 - h0) + (p1 - p0) == 3 + c
        assert h1 - h0 == c + 2 and p1 - p0 == 1
        checked.append(c)
    report(2, f"tag cost exactly 4 hash-equivalents + 1 XOR (c=1); "
              f"3+c hashes for c in {checked}")


def test_criterion_03_tag_storage_is_lambda_bits():
    spec = HashSpec.production(64)
    server, tags = keygen(64, 1, Prng(1003, 0))
    tag = tags[0]
    run_session(server, tag, [], spec, label="t001")
    assert tag.pending is None, "no session residue may persist"
    assert tag.persistent_secret_bits == 64
    secret_fields = [f.name for f in dataclasses.fields(tag)
                     if isinstance(getattr(tag, f.name), BitString)]
    assert secret_fields == ["key"]
    report(3, "persistent tag secret material is exactly the 64-bit key")


def test_criterion_04_cost_model_reference_figures():
    rep = compute_cost(CostParams(batch_tags=200))
    r = rep.rounded
    figures = {
        "hash": str(r(rep.hash_time_ms)),
        "tag_compute": str(r(rep.tag_compute_ms)),
        "t2r": str(r(rep.t2r_ms)),
        "r2t": str(r(rep.r2t_ms)),
        "total": str(r(rep.total_ms)),
        "approx_total": str(r(rep.total_ms, 1)),
        "single_serial": str(r(rep.single_serial_ms)),
        "batch_serial": str(r(rep.batch_serial_s)),
    }
    assert figures == {
        "hash": "0.33", "tag_compute": "1.32", "t2r": "0.20", "r2t": "1.52",
        "total": "3.04", "approx_total": "3.0",
        "single_serial": "6.40", "batch_serial": "1.28",
    }, figures
    assert all(f.passed for f in check_budget(rep))
    report(4, "64-bit defaults reproduce 0.33/1.32/0.20/1.52 ms, total 3.04 (~3.0) ms, "
              "serial 6.40 ms, 200-tag batch 1.28 s")


def test_criterion_05_lemma1_bijection():
    rep = lemma1_bijection_check(8, prng=Prng(1005, 0))
    assert rep.distinct_images == 256
    assert rep.bijection
    report(5, "XOR with a fixed 8-bit mask is a bijection: 256/256 distinct images")


def test_criterion_06_oracle_composition_identity():
    spec = HashSpec.production(16)
    for trial in range(100):
        cfg = GameConfig(lam=16, n=2, seed=1006, trials=1)
        h = new_world(cfg, "ind", spec, trial)
        clone = copy.deepcopy(h)
        t = h.execute(0)
        x_s = clone.query_s()
        x_t = clone.query_t(0)
        sigma, delta = clone.reply(0, x_t)
        sigma_prime = clone.reply_prime(0, x_s, sigma, delta)
        assert t.x_s.x_s == x_s
        assert t.x_t.x_t == x_t
        assert t.broadcast == BroadcastAuth((sigma.value,), (delta.value,))
        assert t.sigma_prime.sigma_prime == sigma_prime
        assert h.tags[0].key == clone.tags[0].key
    report(6, "execute equals query/query'/reply/reply' composition bitwise "
              "in 100 cloned worlds")


def test_criterion_07_restricted_backward_differential():
    spec = HashSpec.production(16)
    cfg = GameConfig(lam=16, n=2, trials=TRIALS, seed=GAME_SEED)
    started = time.monotonic()
    restricted = run_game("backward", cfg, KeyKnowledge(leaky=False), spec)
    leaky = run_game("backward", cfg, KeyKnowledge(leaky=True), spec)
    elapsed = time.monotonic() - started
    assert restricted.advantage <= 0.02, restricted.to_line()
    assert leaky.win_rate >= 0.99, leaky.to_line()
    assert elapsed < 60.0, f"differential took {elapsed:.1f}s"
    report(7, f"withholding the update challenge drops the key-knowledge adversary to "
              f"advantage {restricted.advantage:.4f}; leaking it yields win rate "
              f"{leaky.win_rate:.4f} ({elapsed:.1f}s)")


def test_criterion_08_forward_security_sanity():
    spec = HashSpec.production(16)
    cfg = GameConfig(lam=16, n=2, trials=TRIALS, seed=GAME_SEED)
    result = run_game("forward", cfg, KeyKnowledge(leaky=False), spec)
    assert result.advantage <= 0.02, result.to_line()
    report(8, f"revealed current key matches the prior instance no better than chance "
              f"(advantage {result.advantage:.4f})")


def test_criterion_09_null_calibration():
    spec = HashSpec.production(16)
    cfg = GameConfig(lam=16, n=2, trials=TRIALS, seed=GAME_SEED)
    advantages = {}
    for definition in ("ind", "forward", "backward"):
        r = run_game(definition, cfg, RandomGuess(), spec)
        assert r.advantage <= r.ci95, r.to_line()
        advantages[definition] = round(r.advantage, 4)
    report(9, f"random-guess advantage within its 95% Wilson interval of 0 "
              f"on all three games: {advantages}")


def test_criterion_10_tamper_countermeasure():
    spec = HashSpec.production(16)
    mutate = Prng(1010, 5)
    for round_no in range(100):
        server, tags = keygen(16, 1, Prng(1010, 10 + round_no))
        tag = tags[0]
        ch = server_begin(server)
        nonce = tag_respond_nonce(tag)
        bc, pending = server_prepare(server, ch.x_s, nonce.x_t, spec)
        (sigma,), (delta,) = bc.sigmas, bc.deltas
        if mutate.randbelow(2):
            bc = bc._replace(sigmas=(sigma ^ 1 << (15 - mutate.randbelow(16)),))
        else:
            bc = bc._replace(deltas=(delta ^ 1 << (15 - mutate.randbelow(16)),))
        key_before = tag.key
        ta = tag_verify_and_respond(tag, ch.x_s, bc, spec)
        assert len(ta.sigma_prime) == 16
        assert tag.key == key_before, "tag key must not move on a corrupted broadcast"
        assert not server_finalize(server, pending, ta).accepted

    # failure-path and success-path responses are indistinguishable in shape
    server, tags = keygen(16, 1, Prng(1011, 0))
    ok = run_session(server, tags[0], [], spec)
    assert ok.tag_updated
    assert len(ok.sigma_prime.sigma_prime) == 16
    report(10, "100 single-bit corruptions of sigma/delta: 16-bit response, "
               "no key update, shape identical to success")


def test_criterion_11_desync_recovery_and_flagging():
    spec = HashSpec.production(16)

    server, tags = keygen(16, 1, Prng(1012, 0))
    ts = World(server, tags, spec).run(FaultSchedule([AdversaryAction.drop(4, 1)]), 2)
    assert ts[0].tag_updated and not ts[0].accepted
    assert ts[1].accepted
    assert ts[1].outcome_server.matched_slot == "previous"
    assert tags[0].key == server.records["t001"].key_current
    assert not server.records["t001"].desynchronized

    server, tags = keygen(16, 1, Prng(1013, 0))
    sched = FaultSchedule([AdversaryAction.drop(4, 1), AdversaryAction.drop(4, 2)])
    World(server, tags, spec).run(sched, 3)
    assert server.records["t001"].desynchronized
    report(11, "one dropped final flight recovers via the previous-key slot; "
               "two consecutive drops flag the record desynchronized")


def test_criterion_12_known_answer_transcript():
    tr = json.loads(FIXTURE.read_text())["transcript_lambda8"]
    spec = HashSpec.toy(tr["lambda"])
    server, tags = keygen(tr["lambda"], 1, Prng(tr["seed"], 0))
    t = run_session(server, tags[0], [], spec, label="t001")

    from kimap.protocol import partial_key, session_key
    x1 = partial_key(spec, 1, server.master, BitString.from_text(tr["k1"]))
    sk = session_key(BitString.from_text(tr["k1"]).split()[0], x1.split()[0])

    observed = {
        "x_i": x1.to_text(),
        "sigma": BitString(t.broadcast.sigmas[0], len(x1)).to_text(),
        "delta": BitString(t.broadcast.deltas[0], len(x1)).to_text(),
        "sk": sk.to_text(),
        "sigma_prime": t.sigma_prime.sigma_prime.to_text(),
        "k2": tags[0].key.to_text(),
    }
    expected = {
        "x_i": tr["x1"],
        "sigma": tr["sigma"],
        "delta": tr["delta"],
        "sk": tr["sk"],
        "sigma_prime": tr["sigma_prime"],
        "k2": tr["k2"],
    }
    assert observed == expected
    assert server.records["t001"].key_current.to_text() == tr["k2"]
    report(12, "full 8-bit toy transcript (x_i, sigma, delta, sk, sigma', k2) "
               "matches the straight-line oracle fixture")
