"""The four workloads. Each one builds its inputs from the workload seed alone.

A workload has ``setup()``, which builds a fresh world (the part reported as
``setup_s``), and ``next_op(i)``, which does any untimed preparation for
operation ``i`` and returns ``(label, call)``; the harness times ``call()``.
``judge(i, result, error)`` turns the result into an outcome line for the
digest and says whether the operation failed, and ``finish(failed)`` returns
the workload's own figures, its correctness gates and any further report
lines.

Every run completes at least ``min_ops`` operations. Counts and outcomes are
reported over exactly those first ``min_ops`` operations, so they repeat
byte for byte for a given seed, whatever the speed of the machine.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import shutil
from pathlib import Path

from kimap import channel, cli, games, protocol, storage
from kimap.bits import BitString, HashSpec, Prng
from kimap.channel import AdversaryAction, FaultSchedule
from kimap.protocol import TagAuth

LAM = 64
PRODUCTION = HashSpec.production(LAM)

Gate = tuple[str, bool, str]


class Workload:
    name = ""
    op_name = ""
    min_ops = 200
    setups = 3
    round_len = 1  # a run ends on a multiple of this many operations
    # fnmatch patterns of the per-layer metrics this workload moves; each
    # metric they match must read non-zero in a traced run.
    moves: tuple[str, ...] = ()
    # Flight-3 candidates every operation must compute, if fixed.
    candidates_per_op: int | None = None
    # Whether every hash2 call of an operation runs under the server's or a
    # tag's meter, so traced hash2 spans and meter counts must agree.
    hashes_metered = True

    def __init__(self, seed: int, workdir: Path, meters, speed):
        self.seed = seed
        self.workdir = workdir
        self.meters = meters
        self.speed = speed
        self.raised = 0

    def setup(self) -> None:
        raise NotImplementedError

    def next_op(self, i: int):
        raise NotImplementedError

    def judge(self, i: int, result, error) -> tuple[str, bool]:
        raise NotImplementedError

    def finish(self, failed: int) -> tuple[dict[str, float], list[Gate], list[str]]:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def count_raise(self, i: int, error: BaseException) -> tuple[str, bool]:
        self.raised += 1
        return f"{i} raised {type(error).__name__}: {error}", True

    def _raise_gate(self) -> Gate:
        return ("no operation raised", self.raised == 0, f"{self.raised} raised")


class _SessionCounts:
    """Session outcomes, and the desynchronized records after the last one."""

    def __init__(self) -> None:
        self.sessions = self.accepted = self.recovered = self.aborted = self.desynced = 0

    def add(self, accepted: bool, recovered: bool, aborted: bool, desynced: int) -> None:
        self.sessions += 1
        self.accepted += accepted
        self.recovered += recovered
        self.aborted += aborted
        self.desynced = desynced

    def add_transcript(self, t: channel.SessionTranscript, server) -> None:
        self.add(t.accepted, t.accepted and t.outcome_server.matched_slot == "previous",
                 t.outcome_server is None,
                 sum(rec.desynchronized for rec in server.records.values()))

    def values(self) -> dict[str, float]:
        n = self.sessions or 1
        return {"accepted_share": self.accepted / n, "recovered_share": self.recovered / n,
                "aborted_share": self.aborted / n, "desynced_records": self.desynced}


def warm_up(server, tags, labels, first_seq: int, speed, recording=None) -> int:
    """One honest session per tag, in label order. Afterwards every record
    has been accepted once, so it broadcasts a previous-slot candidate too.
    The host speed is read between sessions, as the warm-up can take
    seconds."""
    seq = first_seq
    for tag, label in zip(tags, labels):
        speed.calibrate()
        t = channel.run_session(server, tag, [], PRODUCTION, session_seq=seq, label=label,
                                recording=recording)
        if not t.accepted:
            raise RuntimeError(f"warm-up session {seq} for {label} was not accepted")
        seq += 1
    return seq


# ---------------------------------------------------------------------------
# fleet-steady
# ---------------------------------------------------------------------------

class FleetSteady(Workload):
    """256 tags in steady state: every broadcast carries 2N = 512 candidates."""

    name = "fleet-steady"
    op_name = "session"
    n_tags = 256
    candidates_per_op = 2 * n_tags
    moves = ("bits.*", "protocol.candidates", "protocol.useful_*", "protocol.make_*",
             "protocol.server_prepare.*", "protocol.tag_scan.*", "protocol.*_hash_ops")

    def setup(self) -> None:
        self.server, self.tags = protocol.keygen(LAM, self.n_tags, Prng(self.seed, 0))
        self.labels = list(self.server.records)
        self.seq = warm_up(self.server, self.tags, self.labels, 1, self.speed)
        self.arrivals = random.Random(self.seed)
        self.counts = _SessionCounts()

    def next_op(self, i: int):
        idx = self.arrivals.randrange(self.n_tags)
        seq, self.seq = self.seq, self.seq + 1
        self.current = idx
        tag, label = self.tags[idx], self.labels[idx]
        return label, lambda: channel.run_session(self.server, tag, [], PRODUCTION,
                                                  session_seq=seq, label=label)

    def judge(self, i: int, t, error) -> tuple[str, bool]:
        if error is not None:
            return self.count_raise(i, error)
        label = self.labels[self.current]
        synced = self.tags[self.current].key == self.server.records[label].key_current
        if i < self.min_ops:
            self.counts.add_transcript(t, self.server)
        sigma_prime = t.sigma_prime.sigma_prime.to_text() if t.sigma_prime else "-"
        server = t.outcome_server.outcome if t.outcome_server else "aborted"
        return f"{t.session_seq} {label} {server} {sigma_prime}", not (t.accepted and synced)

    def finish(self, failed: int):
        gates = [self._raise_gate(),
                 ("every session accepted and key_current equals the tag key",
                  failed == 0, f"{failed} sessions failed")]
        return self.counts.values(), gates, []


# ---------------------------------------------------------------------------
# fault-mix
# ---------------------------------------------------------------------------

FAULT_RATE = 0.02
INTERCEPTIONS = ("drop-2", "drop-3", "drop-4", "replay-3", "replace-4")


def fault_schedule(rng: random.Random, first_seq: int, n_sessions: int) -> FaultSchedule:
    """Intercept each session from ``first_seq`` on independently with
    probability :data:`FAULT_RATE`, by one kind drawn uniformly from
    :data:`INTERCEPTIONS`. A replayed flight 3 comes from an earlier session
    that emitted one: every session before ``first_seq``, and every later one
    whose flight 2 was not dropped."""
    actions = []
    sources = list(range(1, first_seq))
    for seq in range(first_seq, first_seq + n_sessions):
        kind = rng.choice(INTERCEPTIONS) if rng.random() < FAULT_RATE else None
        if kind in ("drop-2", "drop-3", "drop-4"):
            actions.append(AdversaryAction.drop(int(kind[-1]), seq))
        elif kind == "replay-3":
            actions.append(AdversaryAction.replay(3, rng.choice(sources), seq))
        elif kind == "replace-4":
            bits = BitString(rng.getrandbits(LAM), LAM)
            actions.append(AdversaryAction.replace(4, TagAuth(bits), seq))
        if kind != "drop-2":
            sources.append(seq)
    return FaultSchedule(actions)


class FaultMix(Workload):
    """16 tags round-robin under a 2 % interception mix, in episodes of
    3000 sessions. Every run completes the first episode."""

    name = "fault-mix"
    op_name = "session"
    n_tags = 16
    moves = ("channel.*us", "channel.accepted_share", "channel.aborted_share",
             "protocol.server_finalize.us", "protocol.server_timeout.us")
    episode_len = 3000
    min_ops = episode_len
    setups = 9

    def setup(self) -> None:
        self._new_episode(0)
        self.counts = _SessionCounts()
        self.rejected = 0

    def _new_episode(self, episode: int) -> None:
        self.episode = episode
        self.server, self.tags = protocol.keygen(LAM, self.n_tags, Prng(self.seed, episode))
        self.labels = list(self.server.records)
        self.recording: channel.Recording = {}
        self.first_seq = warm_up(self.server, self.tags, self.labels, 1, self.speed,
                                 self.recording)
        rng = random.Random(f"fault-mix/{self.seed}/{episode}")
        self.schedule = fault_schedule(rng, self.first_seq, self.episode_len)
        self.intercepted = {a.session_seq for a in self.schedule.actions}

    def next_op(self, i: int):
        episode, j = divmod(i, self.episode_len)
        if episode != self.episode:
            self._new_episode(episode)
        # Compose the session exactly as run_schedule does.
        seq = self.first_seq + j
        idx = (seq - 1) % self.n_tags
        self.current_seq = seq
        server, tag, label = self.server, self.tags[idx], self.labels[idx]
        schedule, recording = self.schedule, self.recording
        return label, lambda: channel.run_session(
            server, tag, schedule.for_session(seq), PRODUCTION,
            session_seq=seq, label=label, recording=recording)

    def judge(self, i: int, t, error) -> tuple[str, bool]:
        if error is not None:
            return self.count_raise(i, error)
        server = t.outcome_server.outcome if t.outcome_server else "aborted"
        intercepted = self.current_seq in self.intercepted
        if i < self.min_ops:
            self.counts.add_transcript(t, self.server)
            self.rejected += not intercepted and not t.accepted
        return f"{t.session_seq} {t.label} {'x' if intercepted else '-'} {server}", False

    def finish(self, failed: int):
        # Rejections are outcomes, not failed operations: an unintercepted
        # session the server rejects is the recovery defect of ROADMAP item
        # 3(a), reported as a share of the first min_ops sessions. Only a
        # raised exception fails the gate.
        values = {**self.counts.values(),
                  "unintercepted_rejected_share": self.rejected / (self.counts.sessions or 1)}
        return values, [self._raise_gate()], []


# ---------------------------------------------------------------------------
# games
# ---------------------------------------------------------------------------

GAME_LAM = 16
GAME_SPEC = HashSpec.toy(GAME_LAM)
# (definition, distinguisher, tags per world, label)
GAME_PAIRS = (
    ("ind", "random-guess", 2, "ind"),
    ("forward", "key-knowledge", 2, "forward"),
    ("backward", "key-knowledge", 2, "backward"),
    ("backward", "key-knowledge-leaky", 2, "backward-leaky"),
    ("ind2tag", "random-guess", 3, "ind2tag"),
)
TRIALS_PER_PAIR = 20
# A chance-level pair fails its gate with probability below about 1e-6.
GATE_TAIL = 1e-6
# Two-sided normal quantile for GATE_TAIL.
GATE_Z = 4.9


def advantage_bound(trials: int) -> float:
    """Largest |win rate - 1/2| a chance-level distinguisher reaches with
    probability above about :data:`GATE_TAIL` over ``trials`` trials."""
    return GATE_Z * 0.5 / math.sqrt(trials)


def leaky_loss_allowance(trials: int) -> int:
    """Losses the leaky key-knowledge adversary may show. It loses a trial
    only when random test material passes its check by chance, at rate
    2**-GAME_LAM per trial; allow the smallest count whose Poisson tail is
    below :data:`GATE_TAIL`."""
    mean = trials * 2.0 ** -GAME_LAM
    k, term, cdf = 0, math.exp(-mean), math.exp(-mean)
    while 1.0 - cdf > GATE_TAIL:
        k += 1
        term *= mean / k
        cdf += term
    return k


class Games(Workload):
    """A fixed round of trials per (definition, distinguisher) pair, in order."""

    name = "games"
    op_name = "trial"
    setups = 9
    moves = ("bits.*", "games.*", "protocol.keygen.ms")
    # The game code also hashes outside the metered server and tag calls.
    hashes_metered = False
    round_len = TRIALS_PER_PAIR * len(GAME_PAIRS)
    min_ops = 2 * round_len

    def setup(self) -> None:
        # Warm-up: one round on seeds the measured trials never use.
        for pair_idx, (definition, dist, n, _) in enumerate(GAME_PAIRS):
            for t in range(TRIALS_PER_PAIR):
                self.speed.calibrate()
                cfg = games.GameConfig(lam=GAME_LAM, n=n, trials=1,
                                       seed=-(1 + pair_idx * TRIALS_PER_PAIR + t))
                games.run_game(definition, cfg, games.make_distinguisher(dist), GAME_SPEC)
        self.seed_base = random.Random(self.seed).getrandbits(40)
        self.wins = {label: 0 for *_, label in GAME_PAIRS}
        self.trials = dict.fromkeys(self.wins, 0)

    def next_op(self, i: int):
        pair_idx = i % self.round_len // TRIALS_PER_PAIR
        definition, dist, n, label = GAME_PAIRS[pair_idx]
        cfg = games.GameConfig(lam=GAME_LAM, n=n, trials=1, seed=self.seed_base + i)
        distinguisher = games.make_distinguisher(dist)
        self.current = label
        return label, lambda: games.run_game(definition, cfg, distinguisher, GAME_SPEC)

    def judge(self, i: int, result, error) -> tuple[str, bool]:
        if error is not None:
            return self.count_raise(i, error)
        self.trials[self.current] += 1
        self.wins[self.current] += result.wins
        return f"{i} {self.current} {result.wins}", False

    def finish(self, failed: int):
        lines, gates = [], [self._raise_gate()]
        for label, trials in self.trials.items():
            wins = self.wins[label]
            advantage = abs(wins / trials - 0.5) if trials else 0.0
            if label == "backward-leaky":
                allowed = leaky_loss_allowance(trials)
                ok = trials - wins <= allowed
                detail = f"win rate {wins / max(trials, 1):.6f}, {trials - wins} losses, allowed {allowed}"
            else:
                bound = advantage_bound(max(trials, 1))
                ok = advantage <= bound
                detail = f"advantage {advantage:.6f}, bound {bound:.6f}"
            lines.append(f"game {label} trials={trials} wins={wins} {detail}")
            gates.append((f"{label} advantage", ok and trials > 0, detail))
        return {}, gates, lines


# ---------------------------------------------------------------------------
# cli-run
# ---------------------------------------------------------------------------

def parse_summary(stdout: str) -> dict[str, int]:
    for line in reversed(stdout.splitlines()):
        if line.startswith("summary "):
            return {k: int(v) for k, v in (f.split("=") for f in line.split()[1:])}
    raise ValueError("no summary line in kimap run output")


def transcript_label(stdout: str) -> str:
    """Label of the tag in the first transcript line, or ''."""
    for line in stdout.splitlines():
        if line.startswith("transcript "):
            return line.split()[2].removeprefix("tag=")
    return ""


class CliRun(Workload):
    """In-process ``kimap init --tags 128`` then ``kimap run --sessions 1``
    repeated against the same database directory."""

    name = "cli-run"
    op_name = "invocation"
    n_tags = 128
    moves = ("storage.*", "cli.*")
    warm_up_invocations = 3
    setups = 9

    def __init__(self, seed: int, workdir: Path, meters, speed):
        super().__init__(seed, workdir, meters, speed)
        self.db = workdir / "db"
        self.db_file = self.db / "kimap.db"

    def _invoke(self, argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        return rc, out.getvalue()

    def setup(self) -> None:
        shutil.rmtree(self.db, ignore_errors=True)
        rc, _ = self._invoke(["init", "--db", str(self.db), "--tags", str(self.n_tags),
                              "--seed", str(self.seed)])
        if rc != 0:
            raise RuntimeError(f"kimap init exited {rc}")
        self.run_seeds = random.Random(self.seed)
        for _ in range(self.warm_up_invocations):
            self.speed.calibrate()
            rc, out = self._invoke(self._run_argv())
            if rc != 0 or parse_summary(out)["accepted"] != 1:
                raise RuntimeError(f"warm-up invocation failed (exit {rc})")
        self.counts = _SessionCounts()

    def _run_argv(self) -> list[str]:
        return ["run", "--db", str(self.db), "--sessions", "1",
                "--seed", str(self.run_seeds.getrandbits(31))]

    def next_op(self, i: int):
        argv = self._run_argv()
        return "run", lambda: self._invoke(argv)

    def judge(self, i: int, result, error) -> tuple[str, bool]:
        if error is not None:
            return self.count_raise(i, error)
        rc, out = result
        summary = parse_summary(out) if rc == 0 else {}
        accepted = summary.get("accepted") == 1
        # The tag that answered lives inside the invocation; Meters kept it.
        tag = self.meters.last_tag
        label = transcript_label(out)
        _, records = storage.load_database(self.db_file)
        synced = tag is not None and label in records and records[label].key_current == tag.key
        if i < self.min_ops:
            self.counts.add(accepted, summary.get("recovered") == 1, summary.get("aborted") == 1,
                            summary.get("desynced", 0))
        return f"{i} exit={rc}\n{out}", not (rc == 0 and accepted and synced)

    def finish(self, failed: int):
        gates = [self._raise_gate(),
                 ("every invocation exits 0, its session is accepted and key_current "
                  "equals the tag key", failed == 0, f"{failed} invocations failed")]
        return {**self.counts.values(), "db_bytes": self.db_file.stat().st_size}, gates, []

    def close(self) -> None:
        shutil.rmtree(self.db, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (FleetSteady, FaultMix, Games, CliRun)}
