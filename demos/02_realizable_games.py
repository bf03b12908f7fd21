"""Optimal play, both sides of the board.

The optimal learner never exceeds the dimension on realizable sequences;
the tree adversary extracts exactly that many mistakes from it, and at
least that many from anything else.

Run:  python3 demos/02_realizable_games.py
"""

import numpy as np

from robust_online import (
    BASELINES,
    HypothesisClass,
    PerturbationMap,
    RobustReductionLearner,
    RobustTreeAdversary,
    adversarial_dimension,
    make_learner,
    witness_tree,
)
from robust_online.adversaries import realizable_robust_rounds
from robust_online.seeding import derive_rng

HC = HypothesisClass.from_tables(
    [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 1, 1)]
)
U = PerturbationMap.from_sets([{0, 1}, {1}, {1, 2}])


def play_tree(learner_name, hc, u, rng):
    learner = make_learner(learner_name, "robust", hc, u, rng=rng, strict=False)
    adversary = RobustTreeAdversary(witness_tree(hc, u), u)
    mistakes = 0
    while True:
        z = adversary.emit()
        if z is None:
            return mistakes
        pred = learner.predict(z)
        x, y = adversary.reveal(pred)
        mistakes += pred != y
        learner.update(z, x, y)


def main():
    dim = adversarial_dimension(HC, U)
    print(f"dimension under the mixed-overlap map: {dim}\n")

    print("optimal learner on 30 random realizable sequences:")
    worst = 0
    for seed in range(30):
        rng = derive_rng(seed, "demo-realizable")
        learner = RobustReductionLearner(HC, U)
        mistakes = 0
        for z, x, y in realizable_robust_rounds(HC, U, 12, rng):
            mistakes += learner.predict(z) != y
            learner.update(z, x, y)
        worst = max(worst, mistakes)
    print(f"  worst mistake count: {worst}  (bound {dim})\n")

    # The tree adversary punishes every prediction while keeping the
    # sequence realizable, so the descent costs its full depth no matter
    # who plays.  Deeper board: same class, identity perturbations.
    from robust_online import identity_map

    boards = [("mixed overlap", U, dim), ("identity", identity_map(3), None)]
    rng = np.random.default_rng(0)
    for label, u, d in boards:
        d = adversarial_dimension(HC, u) if d is None else d
        print(f"everyone against the tree adversary ({label}, dimension {d}):")
        for name in ("optimal",) + BASELINES:
            forced = play_tree(name, HC, u, rng)
            note = "tight" if forced == d else "above the bound"
            print(f"  {name:<11} forced mistakes: {forced}  ({note})")
        print()


if __name__ == "__main__":
    main()
