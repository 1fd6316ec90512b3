"""Golden multi-tag transcript on the production hash.

A 48-session round-robin run over four tags at lambda=64 with SHA-256, under
drops on flights 2, 3 and 4, flight-3 replays and flight-4 replacements,
must print exactly the recorded transcript lines and leave exactly the
recorded server records. This is the server's flight-3 path at a real key
width (the CLI golden test runs the production hash at lambda=16 only): any
change to partial keys, candidates, the broadcast order, recovery or
hedging shows up here as a byte difference.
"""

from pathlib import Path

from kimap.bits import BitString, HashSpec, Prng
from kimap.channel import AdversaryAction, FaultSchedule, World, transcript_line
from kimap.protocol import TagAuth, keygen

FIXTURE = Path(__file__).parent / "fixtures" / "golden_transcript.txt"

SPEC = HashSpec.production(64)
SESSIONS = 48

SCHEDULE = FaultSchedule([
    AdversaryAction.drop(2, 3),
    AdversaryAction.drop(3, 7),
    AdversaryAction.drop(4, 9),
    AdversaryAction.replay(3, 11, 15),
    AdversaryAction.replace(4, TagAuth(BitString(0x0123456789ABCDEF, 64)), 18),
    AdversaryAction.drop(4, 22),
    AdversaryAction.drop(2, 27),
    AdversaryAction.drop(3, 31),
    # Two failed sessions in a row: records read as desynchronized.
    AdversaryAction.drop(4, 33),
    AdversaryAction.drop(4, 34),
    AdversaryAction.replay(3, 36, 40),
    AdversaryAction.replace(4, TagAuth(BitString(0xFEDCBA9876543210, 64)), 44),
])


def golden_lines() -> list[str]:
    server, tags = keygen(64, 4, Prng(7, 0))
    transcripts = World(server, tags, SPEC).run(SCHEDULE, SESSIONS)
    lines = [transcript_line(t) for t in transcripts]
    for label, rec in server.records.items():
        previous = rec.key_previous.to_text() if rec.key_previous is not None else "-"
        lines.append(f"record {label} key_current={rec.key_current.to_text()} "
                     f"key_previous={previous} counter={rec.counter} "
                     f"consecutive_failures={rec.consecutive_failures}")
    return lines


def test_production_multi_tag_transcript():
    assert golden_lines() == FIXTURE.read_text().splitlines()
