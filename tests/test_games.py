"""Oracle harness: composition identity, reveal/test semantics, and the game
runner's calibration. Every call the games module refuses is one row of
:data:`REFUSED_CALLS`."""

import copy
import inspect

import pytest

from kimap.bits import (BitString, HashSpec, LengthError, ParameterError, Prng, prng_next, split,
                        xor)
from kimap.games import (
    _BUDGET,
    DEFINITIONS,
    BudgetExceededError,
    Definition,
    Distinguisher,
    GameConfig,
    GameError,
    KeyKnowledge,
    OracleHandle,
    OracleMisuseError,
    RandomGuess,
    lemma1_bijection_check,
    make_distinguisher,
    new_world,
    run_game,
    wilson_halfwidth,
)
from kimap.protocol import SessionOrderError, key_update

TOY16 = HashSpec.toy(16)
Z, B8 = BitString(0, 16), BitString(0, 8)


def world(definition="ind", trial=0, lam=16, n=2, seed=50, **budgets):
    cfg = GameConfig(lam=lam, n=n, seed=seed, **budgets)
    spec = HashSpec.toy(lam) if lam <= 32 else HashSpec.production(lam)
    return new_world(cfg, definition, spec, trial)


def refuse(h, call, error, message):
    """Makes ``call`` on the world ``h``: an oracle's name and arguments, or,
    with no world, a function and its arguments. It must raise exactly
    ``error(message)`` and leave the world as it was, except that an oracle
    of the game that draws on a budget with room left spends one unit:
    ``_admit`` spends it before it checks the tags and the session."""
    name, *args = call
    before = copy.deepcopy(vars(h)) if h else None
    with pytest.raises(error) as err:
        (getattr(h, name) if h else name)(*args)
    assert (type(err.value), str(err.value)) == (error, message)
    if h:
        used = before["counters"].get(name, 0)
        if (name in DEFINITIONS[h.definition].oracles and name in _BUDGET
                and used < getattr(h.cfg, _BUDGET[name])):
            before["counters"][name] = used + 1
        assert vars(h) == before


class Silent(RandomGuess):
    name = "silent"

    def interact(self, h):
        pass


# Every call the games module refuses: (the game of a fresh world(), or None
# for a call without one; the world's other world() arguments; the calls, of
# which all but the last run and the last is refused as refuse() checks; its
# error class and its message).
SPENT, MISUSE, ORDER = BudgetExceededError, OracleMisuseError, SessionOrderError
REFUSED_CALLS = {
    # each budget, spent (GameConfig: r1 for query_s and reply, r2 for
    # query_t and reply_prime, rb for the restricted pair, e1 and e2)
    "query_s-budget": ("ind", {"r1": 0}, [("query_s",)], SPENT, "query_s budget of 0 exhausted"),
    "query_t-budget": ("ind", {"r2": 0}, [("query_t", 0)], SPENT, "query_t budget of 0 exhausted"),
    "query_b-budget": ("backward", {"rb": 0}, [("query_b",)], SPENT,
                       "query_b budget of 0 exhausted"),
    "reply-budget": ("ind", {"r1": 1}, [("query_s",), ("query_t", 0), ("reply", 0, Z),
                                        ("query_t", 0), ("reply", 0, Z)],
                     SPENT, "reply budget of 1 exhausted"),
    "reply_prime-budget": ("ind", {"r2": 0}, [("reply_prime", 0, Z, Z, Z)], SPENT,
                           "reply_prime budget of 0 exhausted"),
    "reply_b-budget": ("backward", {"rb": 0}, [("reply_b", 0, Z, Z, Z)], SPENT,
                       "reply_b budget of 0 exhausted"),
    "execute-budget": ("ind", {"e1": 2}, [("execute", 0)] * 3, SPENT,
                       "execute budget of 2 exhausted"),
    "execute_b-budget": ("backward", {"e2": 1}, [("execute_b", 0)] * 2, SPENT,
                         "execute_b budget of 1 exhausted"),
    # random-guess eavesdrops each tag once, so it stops its first trial
    "run_game-execute-budget": (None, {}, [(run_game, "ind", GameConfig(16, 2, e1=0, trials=1,
                                                                          seed=68),
                                            RandomGuess(), HashSpec.production(16))],
                                SPENT, "execute budget of 0 exhausted"),
    # session order
    "reply-without-challenge": ("ind", {}, [("query_t", 0), ("reply", 0, Z)], ORDER,
                                "reply needs a pending server challenge"),
    "reply_prime-without-nonce": ("ind", {}, [("query_s",), ("reply_prime", 0, Z, Z, Z)], ORDER,
                                  "reply' needs a pending tag nonce"),
    "reply_b-without-restricted-session": ("backward", {}, [("query_t", 0),
                                                            ("reply_b", 0, Z, Z, Z)],
                                           ORDER, "reply_b needs a pending restricted session"),
    # an oracle outside the game
    "query_b-in-ind": ("ind", {}, [("query_b",)], MISUSE,
                       "query_b is not in the ind game's oracle set"),
    "reply_b-in-ind": ("ind", {}, [("reply_b", 0, Z, Z, Z)], MISUSE,
                       "reply_b is not in the ind game's oracle set"),
    "execute_b-in-ind": ("ind", {}, [("execute_b", 0)], MISUSE,
                         "execute_b is not in the ind game's oracle set"),
    "reveal_secret-in-ind": ("ind", {}, [("choose_challenge", 1), ("reveal_secret", 1)], MISUSE,
                             "reveal_secret is not in the ind game's oracle set"),
    "query_s-in-backward": ("backward", {}, [("query_s",)], MISUSE,
                            "query_s is not in the backward game's oracle set"),
    "reply_prime-in-backward": ("backward", {}, [("reply_prime", 0, Z, Z, Z)], MISUSE,
                                "reply_prime is not in the backward game's oracle set"),
    # a tag the world does not have
    "execute-tag-5": ("ind", {}, [("execute", 5)], MISUSE, "no tag 5"),
    "execute-tag--1": ("ind", {}, [("execute", -1)], MISUSE, "no tag -1"),
    "query_t-tag-2": ("ind", {}, [("query_t", 2)], MISUSE, "no tag 2"),
    "reply-tag-2": ("ind", {}, [("reply", 2, Z)], MISUSE, "no tag 2"),
    "reply_prime-tag-2": ("ind", {}, [("reply_prime", 2, Z, Z, Z)], MISUSE, "no tag 2"),
    "reply_b-tag-2": ("backward", {}, [("reply_b", 2, Z, Z, Z)], MISUSE, "no tag 2"),
    # a candidate's sigma and delta are each as wide as the keys, held before
    # the tag acts
    "reply_prime-of-unequal-widths": ("ind", {}, [("query_t", 0), ("reply_prime", 0, Z, B8, Z)],
                                      LengthError, "candidate is 8 and 16 bits, the keys 16"),
    "reply_b-of-unequal-widths": ("backward", {}, [("query_b",), ("query_t", 0), ("reply", 0, Z),
                                                   ("reply_b", 0, Z, B8, Z)],
                                  LengthError, "candidate is 8 and 16 bits, the keys 16"),
    "reply_prime-narrower-than-the-keys": ("ind", {}, [("query_t", 0),
                                                       ("reply_prime", 0, Z, B8, B8)],
                                           LengthError, "candidate is 8 and 8 bits, the keys 16"),
    # an x_t of another width is refused with the server's challenge pending
    "reply-of-another-width": ("ind", {}, [("query_s",), ("query_t", 0), ("reply", 0, B8)],
                               LengthError, "inconsistent operand lengths: [16, 8]"),
    "execute_b-tag-2": ("backward", {}, [("execute_b", 2)], MISUSE, "no tag 2"),
    "reveal_secret-tag-2": ("forward", {}, [("reveal_secret", 2)], MISUSE, "no tag 2"),
    "choose_challenge-tag-2": ("ind", {}, [("choose_challenge", 2)], MISUSE, "no tag 2"),
    # the challenge: chosen once, in the game's shape
    "challenge-twice": ("forward", {}, [("choose_challenge", 0), ("choose_challenge", 1)],
                        MISUSE, "challenge already chosen"),
    "challenge-pair-twice": ("ind2tag", {"n": 3}, [("choose_challenge", 1, 2),
                                                   ("choose_challenge", 0, 1)],
                             MISUSE, "challenge already chosen"),
    "challenge-of-2-in-ind": ("ind", {"n": 3}, [("choose_challenge", 0, 1)], MISUSE,
                              "the ind game takes 1 challenge tag(s), got 2"),
    "challenge-of-0-in-forward": ("forward", {"n": 3}, [("choose_challenge",)], MISUSE,
                                  "the forward game takes 1 challenge tag(s), got 0"),
    "challenge-of-1-in-ind2tag": ("ind2tag", {"n": 3}, [("choose_challenge", 1)], MISUSE,
                                  "the ind2tag game takes 2 challenge tag(s), got 1"),
    "challenge-of-3-in-ind2tag": ("ind2tag", {"n": 3}, [("choose_challenge", 0, 1, 2)], MISUSE,
                                  "the ind2tag game takes 2 challenge tag(s), got 3"),
    "challenge-of-0-in-ind2tag": ("ind2tag", {"n": 3}, [("choose_challenge",)], MISUSE,
                                  "the ind2tag game takes 2 challenge tag(s), got 0"),
    "challenge-tag-twice-in-ind2tag": ("ind2tag", {"n": 3}, [("choose_challenge", 1, 1)], MISUSE,
                                       "challenge tags must be distinct"),
    # the reveal: of the challenge tag, once it is chosen
    "reveal-before-challenge": ("forward", {}, [("reveal_secret", 0)], MISUSE,
                                "choose a challenge tag before revealing"),
    "reveal-off-challenge": ("forward", {}, [("choose_challenge", 1), ("reveal_secret", 0)],
                             MISUSE, "reveal_secret is allowed on the challenge tag only"),
    # the test: once, of the challenge, of an instance that exists and no
    # revealed key binds; reveals at periods 1 and 3 refuse a target on the
    # right side of one of them only
    "test-twice-in-ind": ("ind", {}, [("choose_challenge", 0), ("execute", 0), ("execute", 0),
                                      ("test", 0, 1), ("test", 0, 1)],
                          MISUSE, "test may be called only once"),
    "test-twice-in-forward": ("forward", {}, [("choose_challenge", 0), ("execute", 0),
                                              ("execute", 0), ("test", 0, 2), ("test", 0, 1)],
                              MISUSE, "test may be called only once"),
    "test-twice-in-backward": ("backward", {}, [("choose_challenge", 0), ("execute_b", 0),
                                                ("execute_b", 0), ("test", 0, 1), ("test", 0, 1)],
                               MISUSE, "test may be called only once"),
    "test-without-challenge": ("ind", {}, [("execute", 0), ("test", 0, 1)], MISUSE,
                               "test must target the chosen challenge"),
    "test-of-one-in-ind2tag": ("ind2tag", {"n": 3}, [("choose_challenge", 1, 2), ("execute", 1),
                                                     ("execute", 2), ("test", 1, 1)],
                               MISUSE, "the ind2tag game takes 2 challenge tag(s), got 1"),
    "test_pair-in-ind": ("ind", {}, [("execute", 0), ("execute", 1), ("test_pair", 0, 1, 1)],
                         MISUSE, "the ind game takes 1 challenge tag(s), got 2"),
    "test-of-an-unmaterialized-instance": ("ind", {}, [("choose_challenge", 0), ("execute", 0),
                                                       ("test", 0, 7)],
                                           MISUSE, "instance 7 of tag 0 was never materialized"),
    "forward-test-behind-two-reveals": ("forward", {}, [
        ("choose_challenge", 1), ("reveal_secret", 1), ("execute", 1), ("execute", 1),
        ("reveal_secret", 1), ("execute", 1), ("test", 1, 3)],
        MISUSE, "instance 2 is not before revealed period 1"),
    "backward-test-between-two-reveals": ("backward", {}, [
        ("choose_challenge", 1), ("reveal_secret", 1), ("execute_b", 1), ("execute_b", 1),
        ("reveal_secret", 1), ("execute_b", 1), ("test", 1, 2)],
        MISUSE, "instance 3 is not after revealed period 3"),
    # the runner and its parameters
    "unknown-definition": (None, {}, [(run_game, "bogus", GameConfig(16, 2, trials=1, seed=66),
                                       RandomGuess(), TOY16)], ParameterError,
                           "unknown game definition 'bogus' (have: ind, forward, backward, "
                           "ind2tag)"),
    # no session can pass flight 3 under a hash of another width than the
    # keys, so no world is built with one
    "world-hashing-to-another-width": (None, {}, [(new_world, GameConfig(16, 2, seed=5), "ind",
                                                   HashSpec.production(18))],
                                       ParameterError, "hash output is 18 bits, the keys 16"),
    "game-hashing-to-another-width": (None, {}, [(run_game, "ind",
                                                  GameConfig(16, 2, trials=1, seed=5),
                                                  RandomGuess(), HashSpec.toy(14))],
                                      ParameterError, "hash output is 14 bits, the keys 16"),
    "world-smaller-than-its-challenge": (None, {}, [(run_game, "ind2tag",
                                                     GameConfig(16, 1, trials=2, seed=1),
                                                     RandomGuess(), HashSpec.production(16))],
                                         ParameterError,
                                         "the ind2tag game takes 2 challenge tag(s), but n is 1"),
    "distinguisher-never-tests": (None, {}, [(run_game, "ind",
                                              GameConfig(16, 2, trials=1, seed=67), Silent(),
                                              TOY16)],
                                  GameError, "distinguisher silent never called test"),
    "key-knowledge-without-reveal": (None, {}, [(run_game, "ind",
                                                 GameConfig(16, 2, trials=1, seed=69),
                                                 KeyKnowledge(), TOY16)],
                                     MISUSE, "key-knowledge needs a reveal oracle; run it on "
                                     "the forward or backward game"),
    "unknown-distinguisher": (None, {}, [(make_distinguisher, "oracle-of-delphi")],
                              ParameterError, "unknown distinguisher 'oracle-of-delphi' (have: "
                              "key-knowledge, key-knowledge-leaky, random-guess)"),
    "negative-budget": (None, {}, [(GameConfig, 16, 2, -1)], ParameterError,
                        "budgets must be >= 0"),
    "no-tags": (None, {}, [(GameConfig, 16, 0)], ParameterError, "need n >= 1 and trials >= 1"),
    "no-trials": (None, {}, [(lambda: GameConfig(16, 2, trials=0),)], ParameterError,
                  "need n >= 1 and trials >= 1"),
    "lemma1-k-17": (None, {}, [(lemma1_bijection_check, 17)], ParameterError,
                    "k must be in 1..16 (the check is exhaustive)"),
    "lemma1-k-0": (None, {}, [(lemma1_bijection_check, 0)], ParameterError,
                   "k must be in 1..16 (the check is exhaustive)"),
    "lemma1-mask-of-another-width": (None, {}, [(lemma1_bijection_check, 4, BitString(0, 5))],
                                     ParameterError, "mask width must equal k"),
}


@pytest.mark.parametrize("case", list(REFUSED_CALLS))
def test_refused_call_changes_nothing_but_its_spend(case):
    game, args, calls, error, message = REFUSED_CALLS[case]
    h = world(game, **args) if game else None
    for name, *call_args in calls[:-1]:
        getattr(h, name)(*call_args)
    refuse(h, calls[-1], error, message)


def test_key_knowledge_refuses_a_game_without_reveal_before_it_acts():
    """``KeyKnowledge`` checks the game's oracle set before it eavesdrops,
    so its refusal leaves the world as it was."""
    h = world("ind", n=3)
    before = copy.deepcopy(vars(h))
    with pytest.raises(OracleMisuseError) as err:
        KeyKnowledge().interact(h)
    assert str(err.value) == ("key-knowledge needs a reveal oracle; run it on the forward or "
                              "backward game")
    assert vars(h) == before


def missing_rows(table):
    """What ``table``, shaped as :data:`REFUSED_CALLS`, lacks: a row that
    finds each budget of ``games._BUDGET`` spent, one that calls each oracle
    some game leaves out in such a game, and one that names a tag the world
    lacks to each oracle that takes a tag. ``test`` takes its tag too, but
    checks it only against the challenge."""
    rows = [(calls[-1][0], game, message) for game, _, calls, _, message in table.values()
            if game]
    oracles = set().union(*(d.oracles for d in DEFINITIONS.values()))
    missing = [f"{o}: no row finds its budget spent" for o in sorted(_BUDGET)
               if not any(name == o and message.startswith(f"{o} budget of ")
                          for name, _, message in rows)]
    outside = {name for name, game, message in rows
               if message == f"{name} is not in the {game} game's oracle set"}
    missing += [f"{o}: no row calls it outside its games" for o in sorted(oracles - outside)
                if any(o not in d.oracles for d in DEFINITIONS.values())]
    missing += [f"{o}: no row names a tag the world lacks" for o in sorted(oracles - {"test"})
                if "tag" in inspect.signature(getattr(OracleHandle, o)).parameters
                and not any(name == o and message.startswith("no tag ")
                            for name, _, message in rows)]
    return missing


class TestRefusedCallsTable:
    def test_every_budget_game_boundary_and_tag_check_has_a_row(self):
        assert missing_rows(REFUSED_CALLS) == []

    @pytest.mark.parametrize("case, problem", [
        ("reply_b-budget", "reply_b: no row finds its budget spent"),
        ("execute_b-in-ind", "execute_b: no row calls it outside its games"),
        ("reveal_secret-tag-2", "reveal_secret: no row names a tag the world lacks"),
    ])
    def test_a_missing_row_is_found(self, case, problem):
        assert missing_rows({k: v for k, v in REFUSED_CALLS.items() if k != case}) == [problem]


class TestQueryOracles:
    def test_query_s_shape(self):
        h = world()
        assert len(h.query_s()) == 16

    def test_query_s_fresh_across_periods(self):
        h = world(lam=64, r1=2000, r2=2000, e1=2000)
        seen = set()
        for _ in range(1000):
            seen.add(h.query_s())
        assert len(seen) == 1000

    def test_query_t_shape_and_freshness(self):
        h = world(lam=64, r2=2000)
        assert len(h.query_t(0)) == 64
        seen = {h.query_t(0) for _ in range(999)}
        assert len(seen) == 999

    def test_query_b_returns_decoy_not_true_challenge(self):
        h = world("backward")
        x_rand = h.query_b()
        assert len(x_rand) == 16
        assert h._pending_x_s is not None
        assert x_rand != h._pending_x_s  # decoy differs from the hidden value

    def test_query_b_decoys_fresh(self):
        h = world("backward", lam=64, rb=2000)
        seen = {h.query_b() for _ in range(1000)}
        assert len(seen) == 1000


class TestReplyOracles:
    def test_reply_outputs_lambda_bits(self):
        h = world()
        x_t = h.query_t(0)
        h.query_s()
        sigma, delta = h.reply(0, x_t)
        assert len(sigma) == len(delta) == 16

    def test_reply_prime_valid_matches_direct_recompute(self):
        from kimap.protocol import auth_tag_msg, session_key
        h = world()
        key = h.tags[0].key
        x_s = h.query_s()
        x_t = h.query_t(0)
        sigma, delta = h.reply(0, x_t)
        x = xor(delta, key)
        k_prime, _ = split(key)
        x_prime, _ = split(x)
        expected = auth_tag_msg(h.spec, x_t, x_s, session_key(k_prime, x_prime))
        assert h.reply_prime(0, x_s, sigma, delta) == expected

    def test_reply_prime_corrupt_sigma_keeps_key(self):
        h = world()
        key = h.tags[0].key
        x_s = h.query_s()
        x_t = h.query_t(0)
        sigma, delta = h.reply(0, x_t)
        out = h.reply_prime(0, x_s, sigma.flip(0), delta)
        assert len(out) == 16
        assert h.tags[0].key == key

    def test_reply_b_uses_hidden_challenge(self):
        h = world("backward")
        h.query_b()
        x_t = h.query_t(0)
        sigma, delta = h.reply(0, x_t)
        decoy = prng_next(Prng(99, 99), 16)
        out = h.reply_b(0, decoy, sigma, delta)
        # the tag verified against the true hidden challenge, so it accepted
        # and ratcheted even though the adversary's view was a decoy
        assert len(out) == 16
        assert h.tags[0].counter == 2
        assert h.server.records[list(h.server.records)[0]].counter == 2

    def test_reply_known_answer_against_fixture(self):
        # the 8-bit oracle-script fixture provisions the same world the game
        # harness builds from (seed, trial 0), so the reply oracle's output
        # is pinned by the independent straight-line computation
        import json
        from pathlib import Path
        tr = json.loads((Path(__file__).parent / "fixtures" / "known_answers.json")
                        .read_text())["transcript_lambda8"]
        h = world(lam=8, n=1, seed=tr["seed"])
        x_s = h.query_s()
        x_t = h.query_t(0)
        sigma, delta = h.reply(0, x_t)
        assert x_s.to_text() == tr["x_s"]
        assert x_t.to_text() == tr["x_t"]
        assert sigma.to_text() == tr["sigma"]
        assert delta.to_text() == tr["delta"]
        assert h.reply_prime(0, x_s, sigma, delta).to_text() == tr["sigma_prime"]


class TestExecute:
    def test_execute_advances_keys(self):
        h = world()
        t1 = h.execute(0)
        t2 = h.execute(0)
        assert t1.broadcast.deltas != t2.broadcast.deltas
        assert h.tags[0].counter == 3

    def test_execute_b_shape(self):
        h = world("backward")
        t = h.execute_b(0)
        (sigma,), (delta,) = t.broadcast
        sigma, delta = BitString(sigma, 16), BitString(delta, 16)
        for value in (t.x_s.x_s, t.x_t.x_t, sigma, delta, t.sigma_prime.sigma_prime):
            assert len(value) == 16
        # flight 1 is the decoy, not the recorded instance's true challenge,
        # and the server's outcome is withheld
        real = h.recorded[0][1]
        assert t.x_s.x_s != real.x_s
        assert (t.x_t.x_t, sigma, delta, t.sigma_prime.sigma_prime) == \
            (real.x_t, real.sigma, real.delta, real.sigma_prime)
        assert t.outcome_server is None and not t.accepted

    def test_execute_b_still_updates_world(self):
        h = world("backward")
        t1 = h.execute_b(0)
        t2 = h.execute_b(0)
        assert t1.broadcast.deltas != t2.broadcast.deltas
        assert h.tags[0].counter == 3
        assert t1.tag_updated and t2.tag_updated

    def test_execute_b_matches_execute_state_under_same_randomness(self):
        # identical world state after either flavor, modulo the extra decoy
        # draw: verify keys advance to the same value when streams align
        h1 = world("backward", trial=4)
        t = h1.execute_b(0)
        assert h1.tags[0].key == h1.server.records[list(h1.server.records)[0]].key_current


class TestRevealSecret:
    def test_returns_current_key(self):
        h = world("forward")
        h.choose_challenge(1)
        assert h.reveal_secret(1) == h.tags[1].key

    def test_idempotent_between_sessions(self):
        h = world("forward")
        h.choose_challenge(1)
        assert h.reveal_secret(1) == h.reveal_secret(1)

    def test_reveal_then_session_then_reveal_recomputes(self):
        h = world("forward")
        h.choose_challenge(1)
        k_i = h.reveal_secret(1)
        t = h.execute(1)
        k_next = h.reveal_secret(1)
        x = xor(BitString(t.broadcast.deltas[0], 16), k_i)
        _, k_dprime = split(k_i)
        _, x_dprime = split(x)
        assert k_next == key_update(h.spec, k_dprime, x_dprime, t.x_s.x_s)


class TestRevealBound:
    """A revealed key binds the instance of its own period, so ``test`` may
    not target it. Without the bound each adversary below predicts the coin
    in every world: the revealed key is consistent with the material
    exactly when it is real."""

    def test_forward_cannot_test_the_revealed_period(self):
        for trial in range(20):
            h = world("forward", trial=trial, seed=7)
            h.choose_challenge(1)
            key = h.reveal_secret(1)
            h.execute(1)
            assert KeyKnowledge._consistent(h.spec, key, h.recorded[1][1])
            refuse(h, ("test", 1, 2), OracleMisuseError,
                   "instance 1 is not before revealed period 1")

    def test_backward_cannot_test_the_revealed_period(self):
        for trial in range(20):
            h = world("backward", trial=trial, seed=8)
            h.choose_challenge(1)
            key = h.reveal_secret(1)
            h.execute_b(1)
            assert KeyKnowledge._consistent(h.spec, key, h.recorded[1][1])
            refuse(h, ("test", 1, 0), OracleMisuseError,
                   "instance 1 is not after revealed period 1")


class TestTestOracle:
    def test_shapes_identical_for_both_coins(self):
        shapes = set()
        for trial in range(30):
            h = world(trial=trial)
            h.choose_challenge(0)
            h.execute(0)
            q = h.test(0, 1)
            shapes.add(tuple(len(f) for f in q))
        assert shapes == {(16, 16, 16, 16, 16)}

    def test_real_branch_returns_recorded_instance(self):
        for trial in range(40):
            h = world(trial=trial)
            h.choose_challenge(0)
            t = h.execute(0)
            q = h.test(0, 1)
            if h.coin == 1:
                assert q.x_s == t.x_s.x_s
                assert q.sigma_prime == t.sigma_prime.sigma_prime
                return
        pytest.fail("coin never came up 1 in 40 trials")

    def test_coin_is_fair(self):
        heads = 0
        n = 10_000
        for trial in range(n):
            h = world(trial=trial, n=1)
            h.choose_challenge(0)
            h.execute(0)
            h.test(0, 1)
            heads += h.coin
        # binomial 3-sigma band around n/2
        assert abs(heads - n / 2) <= 3 * (n ** 0.5) / 2

    def test_offsets_per_game(self):
        h_fwd = world("forward", trial=1)
        h_fwd.choose_challenge(0)
        h_fwd.execute(0)
        h_fwd.execute(0)
        q = h_fwd.test(0, 2)  # targets instance 1
        if h_fwd.coin == 1:
            assert q.x_s == h_fwd.recorded[0][1].x_s

        h_back = world("backward", trial=1)
        h_back.choose_challenge(0)
        h_back.execute_b(0)
        h_back.execute_b(0)
        q = h_back.test(0, 1)  # targets instance 2
        if h_back.coin == 1:
            assert q.x_s == h_back.recorded[0][2].x_s


class TestMisuse:
    def test_backward_admits_plain_execute(self):
        # the boundary of the restricted game still counts full eavesdrops,
        # and the leak-control arm depends on them
        h = world("backward")
        assert h.execute(0).tag_updated


class TestRunGame:
    def test_ind2tag_mode(self):
        cfg = GameConfig(lam=16, n=3, trials=500, seed=63)
        r = run_game("ind2tag", cfg, RandomGuess(), TOY16)
        assert r.advantage <= r.ci95 + 0.05

    def test_two_tag_game_is_one_table_row(self, monkeypatch):
        monkeypatch.setitem(DEFINITIONS, "link2tag", Definition(DEFINITIONS["ind"].oracles, 0, 2))
        cfg = GameConfig(lam=16, n=3, trials=200, seed=64)
        r = run_game("link2tag", cfg, RandomGuess(), TOY16)
        assert r.definition == "link2tag" and r.trials == 200
        assert r.advantage <= r.ci95 + 0.05

    def test_result_line_fields(self):
        cfg = GameConfig(lam=16, n=2, trials=50, seed=65)
        line = run_game("ind", cfg, RandomGuess(), TOY16).to_line()
        for token in ("definition=ind", "distinguisher=random-guess", "lambda=16",
                      "n=2", "trials=50", "wins=", "advantage=", "ci95=", "seed=65"):
            assert token in line


class Echo(Distinguisher):
    """Public oracles only: eavesdrop the challenge tag with ``execute``, then
    test an instance it saw, and guess "real" iff the tested ``x_t`` is one
    it saw. ``test`` does not check whether an instance was observed."""

    name = "echo"
    # game -> (plain executes, test period), so the target is a seen instance
    PLAN = {"ind": (1, 1), "forward": (1, 2), "backward": (2, 1)}

    def interact(self, h):
        c = h.n_tags - 1
        h.choose_challenge(c)
        executes, period = self.PLAN[h.definition]
        self.seen = {h.execute(c).x_t.x_t for _ in range(executes)}
        self.tested = h.test(c, period).x_t

    def guess(self):
        return 1 if self.tested in self.seen else 0


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 2")
def test_echo_of_an_observed_instance_has_no_advantage():
    cfg = GameConfig(lam=16, n=2, trials=400, seed=3)
    for definition in ("ind", "forward", "backward"):
        r = run_game(definition, cfg, Echo(), TOY16)
        assert r.advantage <= r.ci95, (definition, r.wins, r.advantage, r.ci95)


class TestWilson:
    def test_halfwidth_magnitude(self):
        assert 0.009 < wilson_halfwidth(5000, 10000) < 0.011

    def test_never_negative_at_extremes(self):
        assert wilson_halfwidth(0, 100) > 0
        assert wilson_halfwidth(100, 100) > 0


class TestLemma1:
    def test_k1_zero_mask(self):
        report = lemma1_bijection_check(1, mask=BitString(0, 1))
        assert report.pairs == ((0, 0), (1, 1))

    def test_k1_one_mask(self):
        report = lemma1_bijection_check(1, mask=BitString(1, 1))
        assert report.pairs == ((1, 0), (0, 1))
