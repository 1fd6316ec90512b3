"""
Session cost model
==================

How long does an authentication take on a constrained tag, and does it fit
the read window an RFID deployment allows? The model is exact rational
arithmetic over a handful of rate parameters; instrumented protocol runs
agree with its operation counts.
"""

from kimap.bits import HashSpec, Prng
from kimap.channel import run_session
from kimap.costs import CostParams, check_budget, compute_cost
from kimap.protocol import keygen

# Default 64-bit deployment.
report = compute_cost(CostParams(batch_tags=200))
print(report.to_table())
print()
for f in check_budget(report):
    print(f"  [{'PASS' if f.passed else 'FAIL'}] {f.name}: {f.detail}")
print("  overall:", "pass" if all(f.passed for f in check_budget(report)) else "fail")
print()

# The model prices 4 hash-equivalent tag operations per session; a metered
# run of the actual protocol observes the same count.
server, tags = keygen(64, 1, Prng(1, 0))
run_session(server, tags[0], [], HashSpec.production(64))
print("metered tag ops in one honest session:", tags[0].meter.hash_equivalent,
      "(model says", str(report.params.tag_hash_ops) + ")")
print()

# Wider keys and bigger broadcasts are a parameter change, not a new model.
wide = compute_cost(CostParams(lambda_bits=128, candidates=3))
print("128-bit keys, 3 broadcast candidates:")
print(wide.to_table())
print("  fits the 5 ms window:", "yes" if all(f.passed for f in check_budget(wide)) else "no")
