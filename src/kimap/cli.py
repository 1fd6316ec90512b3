"""Command-line surface.

Subcommands and the flags each one reads::

    kimap init   --db DIR [--lambda N] [--tags N] [--seed N] [--force]
    kimap run    --db DIR [--sessions N] [--schedule FILE] [--strict] [--seed N]
    kimap game   DEFINITION DISTINGUISHER [--trials N] [--tags N] [--lambda N]
                 [--seed N] [--format {table,structured}]
    kimap cost   [--lambda N] [--tags N] [--hash-cycles N] [--clock-hz N]
                 [--t2r-bps N] [--r2t-bps N] [--serial-bps N] [--candidates N]
                 [--format {table,structured}]
    kimap lemma1 [--k N] [--mask HEX:LEN] [--seed N]

Flags must be spelled in full, and each N in ASCII decimal digits. ``run``
and ``game`` hash with ``HashSpec.production`` at the key width, and
``game`` keeps every ``GameConfig`` budget at its default. DEFINITION names
a game in ``kimap.games.DEFINITIONS``.

The seed comes from --seed, else the KIMAP_SEED environment variable, else
the fixed default 24301. Every command is deterministic under a fixed seed
and inputs. ``init`` and ``cost`` accept the key widths ``keygen`` can
provision (even, >= 8), and ``init`` at most 256 bits, the widest hash
output. ``run`` takes the key width from the database, runs sessions 1..N
(N >= 1) round-robin over its tags in one ``channel.World`` (the schedule
file names the flights to drop, replace or replay from an earlier session;
a schedule that does not fit is refused before session 1 runs) and
rewrites the database only after every session ran. ``cost`` builds one
``costs.CostParams`` from its flags, ``--tags`` setting ``batch_tags``.

Exit codes: 0 success, 1 operational failure (with --strict, rejections or
desynchronized records; or stdout closed before the output was written), 2
usage or configuration error. A usage error is argparse's own: an unknown
flag or a bad value (a signed or non-decimal N, a malformed --mask), with
its reason. A configuration error is a ``ParameterError`` (a bad
KIMAP_SEED, an out-of-range value, a malformed database, master key or
schedule, one that is not UTF-8 text included, named as ``path:line``; a
master key of another width than the database's keys), a ``GameError``, or
an ``OSError`` (a path of the wrong kind, a failed read or write). ``main`` alone reports it, as
``kimap: <message>`` on stderr, and returns 2. Any other exception is a
library bug and ends in a traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

from .bits import BitString, HashSpec, ParameterError, Prng
from .channel import (
    PAYLOAD_TYPES,
    AdversaryAction,
    FaultSchedule,
    ScheduleError,
    World,
    check_field_widths,
    check_payload_widths,
    transcript_line,
)
from .costs import CostParams, check_budget, compute_cost
from .games import DEFINITIONS, GameConfig, GameError, lemma1_bijection_check, make_distinguisher, run_game
from .protocol import BroadcastAuth, ServerState, TagState, keygen
from .storage import (load_database, load_master, read_decimal, read_text, save_database,
                      save_master)

DEFAULT_SEED = 24301

# CLI-owned PRNG stream ids, away from the ones keygen derives
_RUN_SERVER_STREAM = 1 << 40
_RUN_TAG_STREAM = (1 << 40) + 1


def _resolve_seed(value) -> int:
    if value is not None:
        return value
    env = os.environ.get("KIMAP_SEED")
    if not env:
        return DEFAULT_SEED
    try:
        return read_decimal("KIMAP_SEED", env)
    except ValueError as exc:
        raise ParameterError(str(exc)) from None


def _reasoned(parse: Callable[[str], object]) -> Callable[[str], object]:
    """An argparse ``type=`` of ``parse``: its ValueError is a usage error that says why."""
    def read(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return read


_decimal = _reasoned(partial(read_decimal, "value"))  # every integer flag's type
_mask = _reasoned(BitString.from_text)

# Flags shared by several subcommands; each subcommand takes only those its
# handler reads.
_SHARED_FLAGS = {
    "--lambda": dict(dest="lam", type=_decimal, default=64, help="key width in bits"),
    "--seed": dict(type=_decimal, default=None, help="PRNG seed (default: $KIMAP_SEED or 24301)"),
    "--format": dict(choices=["table", "structured"], default="table"),
}


def _shared(p: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        p.add_argument(flag, **_SHARED_FLAGS[flag])


# ``kimap cost``'s own flags -> the CostParams field each sets and defaults to
_COST_FLAGS = {"--tags": "batch_tags", "--hash-cycles": "hash_cycles_per_block",
               "--clock-hz": "tag_clock_hz", "--t2r-bps": "t2r_rate_bps",
               "--r2t-bps": "r2t_rate_bps", "--serial-bps": "serial_rate_bps",
               "--candidates": "candidates"}


# ---------------------------------------------------------------------------
# Schedule file parsing: one action per line,
#   <session_seq> <flight 1-4> <drop | replay N | replace hex:len...>
# with the session, flight and N in ASCII decimal digits.
# ---------------------------------------------------------------------------

def parse_schedule(path: str, lam: int) -> FaultSchedule:
    """Read a schedule file for a database of key width ``lam``. Every wire
    value is ``lam`` bits wide, so every field of a replacement payload must
    be too."""
    def error(line_no: int, message: str) -> ScheduleError:
        return ScheduleError(f"{path}:{line_no}: {message}")

    schedule = FaultSchedule()
    for line_no, raw in enumerate(read_text(path, error).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) < 3:
            raise error(line_no, "expected '<session> <flight> <action...>'")
        verb, rest = fields[2], fields[3:]
        try:
            seq, flight = read_decimal("session", fields[0]), read_decimal("flight", fields[1])
            if verb == "drop" and not rest:
                action = AdversaryAction.drop(flight, seq)
            elif verb == "replay" and len(rest) == 1:
                source = read_decimal("replay source", rest[0])
                action = AdversaryAction.replay(flight, source, seq)
            elif verb == "replace":
                action = AdversaryAction.replace(flight, _parse_payload(flight, rest, lam), seq)
            elif verb in ("drop", "replay"):
                raise ScheduleError(f"wrong field count for {verb}")
            else:
                raise ScheduleError(f"unknown schedule action {verb!r}")
            schedule.add(action)
        except ValueError as exc:
            raise error(line_no, str(exc)) from None
    return schedule


def _parse_payload(flight: int, fields: list[str], lam: int):
    kind = PAYLOAD_TYPES.get(flight)
    if kind is None:  # no such flight: AdversaryAction says so
        return None
    values = [BitString.from_text(f) for f in fields]
    # ``run`` hashes to lam bits. Each field is checked before a broadcast
    # is built, so a delta of another width is named as any other, and both
    # of the broadcast's columns are lam bits wide.
    if kind is BroadcastAuth and values and len(values) % 2 == 0:  # (sigma, delta) pairs
        check_field_widths(zip(("sigma", "delta") * (len(values) // 2), values), lam, lam)
        return BroadcastAuth(lam, lam, tuple(v.value for v in values[::2]),
                             tuple(v.value for v in values[1::2]))
    if kind is not BroadcastAuth and len(values) == 1:  # every other flight: one value
        payload = kind(values[0])
        check_payload_widths(payload, lam, lam)
        return payload
    raise ScheduleError(f"wrong replacement field count for flight {flight}")


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def _db_paths(db: str) -> tuple[Path, Path]:
    root = Path(db)
    return root / "kimap.db", root / "master.key"


def _init_flags(p: argparse.ArgumentParser) -> None:
    _shared(p, "--lambda", "--seed")
    p.add_argument("--tags", type=_decimal, default=3, help="number of tags to provision")
    p.add_argument("--db", required=True, help="directory for kimap.db and master.key")
    p.add_argument("--force", action="store_true", help="overwrite an existing database")


def cmd_init(args) -> int:
    db_path, master_path = _db_paths(args.db)
    if (db_path.exists() or master_path.exists()) and not args.force:
        raise FileExistsError(f"refusing to overwrite {db_path.parent} (use --force)")
    server, _tags = keygen(args.lam, args.tags, Prng(args.seed, 0))
    HashSpec.production(args.lam)  # run needs a hash this wide: at most 256 bits
    db_path.parent.mkdir(parents=True, exist_ok=True)
    save_database(db_path, args.lam, server.records)
    save_master(master_path, server.master)
    for label in server.records:
        print(label)
    return 0


def _run_flags(p: argparse.ArgumentParser) -> None:
    _shared(p, "--seed")
    p.add_argument("--db", required=True, help="directory holding kimap.db and master.key")
    p.add_argument("--sessions", type=_decimal, default=10, help="sessions to run (>= 1)")
    p.add_argument("--schedule", help="fault schedule file")
    p.add_argument("--strict", action="store_true",
                   help="exit 1 on any rejection or desynchronized record")


def cmd_run(args) -> int:
    db_path, master_path = _db_paths(args.db)
    lam, records = load_database(db_path)
    master = load_master(master_path, lam)
    schedule = parse_schedule(args.schedule, lam) if args.schedule else FaultSchedule([])

    server = ServerState(master=master, records=records, prng=Prng(args.seed, _RUN_SERVER_STREAM))
    tags = [TagState(key=rec.key_current, counter=rec.counter,
                     prng=Prng(args.seed, _RUN_TAG_STREAM + idx))
            for idx, rec in enumerate(records.values())]

    transcripts = World(server, tags, HashSpec.production(lam)).run(schedule, args.sessions)
    save_database(db_path, lam, server.records)

    for t in transcripts:
        print(transcript_line(t))
    accepted = sum(1 for t in transcripts if t.accepted)
    recovered = sum(1 for t in transcripts
                    if t.accepted and t.outcome_server.matched_slot == "previous")
    rejected = sum(1 for t in transcripts
                   if t.outcome_server is not None and not t.outcome_server.accepted)
    aborted = sum(1 for t in transcripts if t.outcome_server is None)
    desynced = sum(1 for rec in server.records.values() if rec.desynchronized)
    print(f"summary sessions={len(transcripts)} accepted={accepted} rejected={rejected} "
          f"aborted={aborted} recovered={recovered} desynced={desynced}")
    return 1 if args.strict and (rejected or desynced) else 0


def _game_flags(p: argparse.ArgumentParser) -> None:
    _shared(p, "--lambda", "--seed", "--format")
    p.add_argument("definition", choices=list(DEFINITIONS))
    p.add_argument("distinguisher")
    p.add_argument("--trials", type=_decimal, default=GameConfig.trials)
    p.add_argument("--tags", type=_decimal, default=2, help="tags per game world")


def cmd_game(args) -> int:
    d = make_distinguisher(args.distinguisher)
    # A multi-tag challenge plays in a world with at least one tag besides it.
    k = DEFINITIONS[args.definition].challenge_tags
    n = args.tags if k == 1 else max(args.tags, k + 1)
    cfg = GameConfig(lam=args.lam, n=n, trials=args.trials, seed=args.seed)
    result = run_game(args.definition, cfg, d, HashSpec.production(args.lam))
    if args.format == "structured":
        print(result.to_line())
    else:
        print(f"game       {result.definition}")
        print(f"strategy   {result.distinguisher}")
        print(f"trials     {result.trials}")
        print(f"wins       {result.wins} (rate {result.win_rate:.4f})")
        print(f"advantage  {result.advantage:.6f} (95% CI half-width {result.ci95:.6f})")
    return 0


def _cost_flags(p: argparse.ArgumentParser) -> None:
    _shared(p, "--lambda", "--format")
    for flag, name in _COST_FLAGS.items():
        p.add_argument(flag, dest=name, metavar=flag[2:].replace("-", "_").upper(),
                       type=_decimal, default=getattr(CostParams, name),
                       help="batch size for serial backhaul" if name == "batch_tags" else None)


def cmd_cost(args) -> int:
    params = CostParams(lambda_bits=args.lam,
                        **{name: getattr(args, name) for name in _COST_FLAGS.values()})
    report = compute_cost(params)
    findings = check_budget(report)
    if args.format == "structured":
        print(report.to_line())
        for f in findings:
            print(f"finding name={f.name} pass={'yes' if f.passed else 'no'} detail=\"{f.detail}\"")
    else:
        print(report.to_table())
        print()
        for f in findings:
            print(f"[{'PASS' if f.passed else 'FAIL'}] {f.name}: {f.detail}")
    print(f"budget {'pass' if all(f.passed for f in findings) else 'fail'}")
    return 0


def _lemma1_flags(p: argparse.ArgumentParser) -> None:
    _shared(p, "--seed")
    p.add_argument("--k", type=_decimal, default=8)
    p.add_argument("--mask", type=_mask, default=None,
                   help="fixed mask as hex:len (default: drawn from the seed)")


def cmd_lemma1(args) -> int:
    report = lemma1_bijection_check(args.k, mask=args.mask, prng=Prng(args.seed, 0))
    print(report.to_line())
    if report.pairs is not None:
        for x, y in report.pairs:
            print(f"pair x={x} y={y}")
    return 0


# ---------------------------------------------------------------------------
# The parser: one row per subcommand.
# ---------------------------------------------------------------------------

class Command(NamedTuple):
    summary: str
    add_flags: Callable[[argparse.ArgumentParser], None]
    handler: Callable[[argparse.Namespace], int]


COMMANDS = {
    "init": Command("provision a server database and master key", _init_flags, cmd_init),
    "run": Command("run authentication sessions against the database", _run_flags, cmd_run),
    "game": Command("run a privacy game and report the advantage", _game_flags, cmd_game),
    "cost": Command("evaluate the session cost model", _cost_flags, cmd_cost),
    "lemma1": Command("exhaustive one-time-pad bijection check", _lemma1_flags, cmd_lemma1),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``kimap`` parser. When ``command`` names a subcommand, only its
    subparser is built, which is all that parsing an argv starting with it
    needs; any other ``command`` (None, ``-h``, a typo) builds all five."""
    if command in COMMANDS:
        # The usage line names all five, as the full build's choices do.
        rows, metavar = {command: COMMANDS[command]}, "{" + ",".join(COMMANDS) + "}"
    else:
        rows, metavar = COMMANDS, None
    parser = argparse.ArgumentParser(prog="kimap", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, row in rows.items():
        row.add_flags(sub.add_parser(name, help=row.summary, allow_abbrev=False))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        if "seed" in vars(args):
            args.seed = _resolve_seed(args.seed)
        code = COMMANDS[args.command].handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout left early (``kimap run ... | head -1``), which
        # is no configuration error. Point stdout at devnull so the flush at
        # interpreter exit cannot fail again, and exit 1 as Python does on
        # EPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (OSError, ParameterError, GameError) as exc:
        print(f"kimap: {exc}", file=sys.stderr)
        return 2
