"""
Privacy games: measuring adversary advantage
=============================================

Three games, each 2,000 worlds here (the acceptance suite runs 10,000):

* random-guess on every game calibrates the harness near zero advantage;
* key-knowledge on the forward game shows a revealed key does not link the
  tag to its past;
* the backward differential is the interesting one: the same key-tracing
  strategy is powerless when it misses the challenges that drive key
  updates, and wins outright when it sees them.
"""

from kimap.bits import HashSpec
from kimap.games import GameConfig, KeyKnowledge, RandomGuess, run_game

spec = HashSpec.production(16)
cfg = GameConfig(lam=16, n=2, trials=2000, seed=42)


def show(result):
    print(f"  {result.definition:<9} {result.distinguisher:<19} "
          f"wins {result.wins}/{result.trials}  advantage {result.advantage:.4f} "
          f"(95% CI half-width {result.ci95:.4f})")


print("null calibration (random-guess)")
for definition in ("ind", "forward", "backward"):
    show(run_game(definition, cfg, RandomGuess(), spec))
print()

print("forward security: key revealed, past instance tested")
show(run_game("forward", cfg, KeyKnowledge(leaky=False), spec))
print()

print("restricted backward security: the differential")
restricted = run_game("backward", cfg, KeyKnowledge(leaky=False), spec)
leaky = run_game("backward", cfg, KeyKnowledge(leaky=True), spec)
show(restricted)
show(leaky)
print()
print(f"missing the update challenge costs the adversary everything: "
      f"advantage {restricted.advantage:.4f} vs win rate {leaky.win_rate:.4f} when leaked")
