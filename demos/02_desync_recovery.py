"""
Losing the final flight: desynchronization and recovery
========================================================

If the tag's last message is blocked, the tag has already ratcheted its key
but the server has not confirmed it. The server hedges by parking the
would-be next key in the record's previous-key slot and broadcasting
candidates for both slots, so one lost flight heals in the next session.
Two consecutive losses are unrecoverable by design; the record is flagged.
"""

from kimap.bits import HashSpec, Prng
from kimap.channel import AdversaryAction, FaultSchedule, World
from kimap.protocol import keygen

spec = HashSpec.production(16)


def show(transcripts, server):
    for t in transcripts:
        slot = t.outcome_server.matched_slot if (t.outcome_server and t.outcome_server.accepted) else "-"
        print(f"  session {t.session_seq}: tag {t.outcome_tag:>11}, "
              f"server {'accepted' if t.accepted else 'no accept':>9}, slot {slot}")
    rec = next(iter(server.records.values()))
    print(f"  record: failures={rec.consecutive_failures} "
          f"desynchronized={'yes' if rec.desynchronized else 'no'}")
    print()


# One blocked final flight: session 2 recovers through the previous-key slot.
print("drop flight 4 of session 1, then run honestly")
server, tags = keygen(16, 1, Prng(7, 0))
schedule = FaultSchedule([AdversaryAction.drop(4, session_seq=1)])
show(World(server, tags, spec).run(schedule, 3), server)

# Two consecutive blocked final flights: permanent desynchronization.
print("drop flight 4 of sessions 1 and 2")
server, tags = keygen(16, 1, Prng(7, 0))
schedule = FaultSchedule([AdversaryAction.drop(4, 1), AdversaryAction.drop(4, 2)])
show(World(server, tags, spec).run(schedule, 4), server)

# Tampering triggers the tag's timing countermeasure: it answers with fresh
# random bits of the right shape instead of failing silently, so success and
# failure look alike on the wire. Replaying an old broadcast fails the same
# way because sigma binds the session's fresh nonce.
print("replay session 1's broadcast into session 2")
server, tags = keygen(16, 1, Prng(7, 0))
schedule = FaultSchedule([AdversaryAction.replay(3, source_session=1, session_seq=2)])
show(World(server, tags, spec).run(schedule, 3), server)
