"""Beyond realizability: aggregated subset experts and their regret.

A corrupted sequence has no perfect hypothesis, so the yardstick becomes
the best hypothesis in hindsight.  One expert per small round subset plus
an exponentially weighted vote keeps the expected regret within
dimension + sqrt((T/2) ln N); expected_regret computes it exactly.

Run:  python3 demos/04_agnostic_regret.py
"""

from robust_online import (
    HypothesisClass,
    PerturbationMap,
    adversarial_dimension,
    comparator_loss,
    decomposition_gap,
    expected_regret,
)
from robust_online.adversaries import corrupt_labels, realizable_robust_rounds
from robust_online.seeding import derive_rng

HC = HypothesisClass.from_tables(
    [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 1, 1)]
)
U = PerturbationMap.from_sets([{0, 1}, {1}, {1, 2}])


def main():
    horizon, corruptions = 12, 2
    dim = adversarial_dimension(HC, U)
    rng = derive_rng(7, "demo-agnostic")
    rounds = corrupt_labels(
        realizable_robust_rounds(HC, U, horizon, rng), corruptions, 2, rng
    )

    best, best_id = comparator_loss(HC, U, rounds)
    print(f"dimension {dim}, horizon {horizon}, corrupted rounds {corruptions}")
    print(f"comparator: hypothesis {best_id} with loss {best}")

    report = decomposition_gap(HC, U, rounds)
    print(
        "decomposition expert: "
        f"{report['expert_mistakes']} mistakes <= {report['dimension']}"
        f" + {report['comparator']} (gap {report['gap']})"
    )

    exact = expected_regret(HC, U, rounds)
    print(f"\n{exact['expert_count']} subset experts")
    print(f"expected regret {exact['expected']:.4f}  vs bound {exact['bound']:.4f}")


if __name__ == "__main__":
    main()
