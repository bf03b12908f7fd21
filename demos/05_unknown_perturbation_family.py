"""When even the perturbation map is unknown.

The true map is one of a finite family.  Two strategies: aggregate one
expert per member with a small-loss tuned forecaster, or run phased
halving, which eliminates every erring member and restarts when the pool
empties.  The halving demo also shows why a completed phase is capped at
floor(log2 |G|) + 1 rather than log2 |G|: the mistake that empties it.

Run:  python3 demos/05_unknown_perturbation_family.py
"""

from robust_online import (
    HypothesisClass,
    PerturbationMap,
    PerturbationFamily,
    family_expected_mistakes,
    family_halving_run,
    halving_bound,
)
from robust_online.adversaries import realizable_robust_rounds
from robust_online.seeding import derive_rng

HC = HypothesisClass.from_tables(
    [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 1, 1)]
)
FAMILY = PerturbationFamily(
    (
        PerturbationMap.from_sets([{0, 1}, {1}, {1, 2}]),
        PerturbationMap.from_sets([{0}, {1}, {2}]),
        PerturbationMap.from_sets([{0, 1, 2}] * 3),
        PerturbationMap.from_sets([{0}, {0, 1}, {2}]),
    ),
    truth_index=1,
)


def main():
    rng = derive_rng(0, "demo-family")
    rounds = realizable_robust_rounds(HC, FAMILY.truth, 12, rng)

    exact = family_expected_mistakes(HC, FAMILY, rounds)
    print(f"family of {len(FAMILY)}, per-member loss budget {exact['budget']}")
    print(
        f"aggregated learner: expected mistakes {exact['expected']:.4f}"
        f"  vs bound {exact['bound']:.4f}"
    )

    report = family_halving_run(HC, FAMILY, rounds)
    print(
        f"phased halving: {report.mistakes} mistakes,"
        f" phases {report.phase_mistakes},"
        f" bound {halving_bound(HC, FAMILY)}"
    )

    # The corner: with |G| = 2 a phase can cost two mistakes even though
    # log2 2 = 1, because the vote tie errs once and the lone survivor may
    # still spend its own allowed mistake.
    u_a = PerturbationMap.from_sets([{0, 1}, set(), {2, 3}, {0, 2}])
    u_b = PerturbationMap.from_sets([set(), {0, 1}, {3}, {0}])
    pair = PerturbationFamily((u_a, u_b), truth_index=1)
    hc = HypothesisClass.from_tables(
        [
            (0, 0, 1, 0),
            (0, 0, 1, 1),
            (0, 1, 1, 1),
            (1, 0, 1, 1),
            (1, 1, 0, 0),
            (1, 1, 1, 1),
        ]
    )
    rng = derive_rng(1, "phase-counterexample")
    rounds = realizable_robust_rounds(hc, pair.truth, 20, rng)
    report = family_halving_run(hc, pair, rounds)
    f = len(pair).bit_length() - 1  # floor(log2 |G|)
    print(
        f"\ntwo-member corner case: phases {report.phase_mistakes},"
        f" completed-phase cap {f + 1},"
        f" total {report.mistakes} <= {halving_bound(hc, pair)}"
    )
    print("the first phase costs 2: the halving mistake plus the emptying one")


if __name__ == "__main__":
    main()
