"""
One honest authentication session, step by step
================================================

Provision a server and one tag, then walk the four flights by hand and
watch both sides converge on the next shared key.
"""

from kimap.bits import BitString, HashSpec, Prng
from kimap.protocol import (
    keygen,
    server_begin,
    server_finalize,
    server_prepare,
    tag_respond_nonce,
    tag_verify_and_respond,
)

# A 16-bit world so the values fit on a line. It hashes as deployments do,
# with SHA-256 truncated to the key width; deployments use 64 bits or wider.
spec = HashSpec.production(16)
server, tags = keygen(16, 1, Prng(seed=2024, stream_id=0))
tag = tags[0]

print("provisioned")
print("  master key (server only):", server.master.to_text())
print("  shared tag key k_1:      ", tag.key.to_text())
print()

# Flight 1: the server challenges.
challenge = server_begin(server)
print("flight 1  server -> tag   x_s =", challenge.x_s.to_text())

# Flight 2: the tag answers with a fresh nonce.
nonce = tag_respond_nonce(tag)
print("flight 2  tag -> server   x_t =", nonce.x_t.to_text())

# Flight 3: the server derives the session's partial key from its master
# secret and one-time-pads it under the shared key; sigma lets the tag
# authenticate the server before trusting delta.
# The broadcast holds the two widths once and each candidate's values.
broadcast, pending = server_prepare(server, challenge.x_s, nonce.x_t, spec)
for sigma, delta in zip(broadcast.sigmas, broadcast.deltas):
    print("flight 3  server -> tag   sigma =", BitString(sigma, broadcast.sigma_bits).to_text(),
          " delta =", BitString(delta, broadcast.delta_bits).to_text())

# Flight 4: the tag verifies, answers, and ratchets its key.
tag_auth = tag_verify_and_respond(tag, challenge.x_s, broadcast, spec)
print("flight 4  tag -> server   sigma' =", tag_auth.sigma_prime.to_text())

result = server_finalize(server, pending, tag_auth)
print()
print("server outcome:", result.outcome, "(matched slot:", result.matched_slot + ")")
record = server.records[result.label]
print("  tag key now:   ", tag.key.to_text())
print("  server key now:", record.key_current.to_text())
assert tag.key == record.key_current
print("  synchronized, counters at", tag.counter)

# The tag did exactly this much work (the nonce draw is priced like a hash):
m = tag.meter
print()
print(f"tag cost: {m.hash_equivalent} hash-equivalent ops "
      f"({m.hash_calls} hashes + {m.prng_calls} PRNG draw), {m.xor_calls} XOR")
