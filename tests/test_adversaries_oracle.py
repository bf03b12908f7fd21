"""Tree adversaries force the dimension; the minimax oracle confirms it."""

import numpy as np
import pytest

from robust_online import (
    BASELINES,
    CorpusParams,
    HypothesisClass,
    OrientationTreeAdversary,
    PerturbationMap,
    RobustReductionLearner,
    RobustTreeAdversary,
    SoaOrientationLearner,
    adversarial_dimension,
    full_class,
    generate_corpus,
    identity_map,
    make_learner,
    optimal_mistake_bound,
    total_map,
    witness_tree,
)
from robust_online.errors import DomainError, LimitExceeded
from robust_online.model import game
from robust_online.oracle import MinimaxSolver
from robust_online.seeding import derive_rng

from reference import is_realizable_sequence

HC5 = HypothesisClass.from_tables(
    [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 1, 1)]
)
U5 = PerturbationMap.from_sets([{0, 1}, {1}, {1, 2}])


def scenario_batch(seed, count):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = int(rng.integers(2, 5))
        tables = sorted(
            {
                tuple(int(v) for v in rng.integers(0, 2, n))
                for _ in range(int(rng.integers(2, 9)))
            }
        )
        sets = [set(np.flatnonzero(rng.integers(0, 2, n))) for _ in range(n)]
        u = PerturbationMap.from_sets(sets)
        if any(sets):
            out.append((HypothesisClass.from_tables(tables), u))
    return out


def play_orientation(learner, adversary):
    mistakes = 0
    while True:
        q = adversary.query()
        if q is None:
            return mistakes
        pred = learner.predict(q)
        side = adversary.reveal(pred)
        mistakes += pred != q.labels[side]
        learner.update(q, side)


def play_robust(learner, adversary):
    mistakes = 0
    while True:
        z = adversary.emit()
        if z is None:
            return mistakes
        pred = learner.predict(z)
        x, y = adversary.reveal(pred)
        mistakes += pred != y
        learner.update(z, x, y)
    return mistakes


def test_dimension_zero_adversary_concedes_immediately():
    hc = HypothesisClass.from_tables([(0, 1)])
    u = identity_map(2)
    tree = witness_tree(hc, u)
    assert OrientationTreeAdversary(tree).query() is None
    assert RobustTreeAdversary(tree, u).emit() is None


def test_orientation_adversary_forces_exact_dimension_on_soa():
    for hc, u in scenario_batch(seed=51, count=30):
        dim = adversarial_dimension(hc, u)
        adversary = OrientationTreeAdversary(witness_tree(hc, u))
        mistakes = play_orientation(SoaOrientationLearner(hc, u), adversary)
        assert mistakes == dim


def test_robust_adversary_forces_exact_dimension_on_reduction():
    for hc, u in scenario_batch(seed=53, count=30):
        dim = adversarial_dimension(hc, u)
        adversary = RobustTreeAdversary(witness_tree(hc, u), u)
        mistakes = play_robust(RobustReductionLearner(hc, u), adversary)
        assert mistakes == dim


def test_adversaries_force_at_least_dimension_on_baselines():
    rng = np.random.default_rng(57)
    for hc, u in scenario_batch(seed=59, count=12):
        dim = adversarial_dimension(hc, u)
        for name in BASELINES:
            tree = witness_tree(hc, u)
            learner = make_learner(name, "orientation", hc, u, rng=rng, strict=False)
            assert play_orientation(learner, OrientationTreeAdversary(tree)) >= dim
            learner = make_learner(name, "robust", hc, u, rng=rng, strict=False)
            assert play_robust(learner, RobustTreeAdversary(tree, u)) >= dim


def test_constant_learner_loses_every_round_of_the_descent():
    hc = full_class(3)
    u = identity_map(3)
    adversary = RobustTreeAdversary(witness_tree(hc, u), u)
    mistakes = play_robust(make_learner("constant-0", "robust", hc, u), adversary)
    assert mistakes == 3


def test_robust_adversary_prefix_stays_realizable():
    for hc, u in scenario_batch(seed=61, count=20):
        adversary = RobustTreeAdversary(witness_tree(hc, u), u)
        prefix = []
        while True:
            z = adversary.emit()
            if z is None:
                break
            x, y = adversary.reveal(1)
            assert z in u.forward[x]
            prefix.append((x, y))
            assert is_realizable_sequence(prefix, hc, u)


def test_robust_adversary_emits_smallest_common_perturbation():
    tree = witness_tree(HC5, U5)
    adversary = RobustTreeAdversary(tree, U5)
    z = adversary.emit()
    x0, x1 = tree.root.pair
    assert z == min(U5.forward[x0] & U5.forward[x1])


def test_adversary_flips_every_prediction():
    hc = full_class(2)
    u = identity_map(2)
    adversary = OrientationTreeAdversary(witness_tree(hc, u))
    q = adversary.query()
    side = adversary.reveal(q.labels[0])
    assert q.labels[side] != q.labels[0]


def test_oracle_singleton_class_is_zero():
    hc = HypothesisClass.from_tables([(0, 1, 0)])
    for game in ("robust", "orientation"):
        assert optimal_mistake_bound(hc, total_map(3), game=game) == 0


def test_oracle_identity_full_class_three_points():
    hc = full_class(3)
    u = identity_map(3)
    assert optimal_mistake_bound(hc, u, game="robust") == 3
    assert optimal_mistake_bound(hc, u, game="orientation") == 3


def test_oracle_matches_dimension_on_random_scenarios():
    for hc, u in scenario_batch(seed=67, count=25):
        dim = adversarial_dimension(hc, u)
        assert optimal_mistake_bound(hc, u, game="robust") == dim
        assert optimal_mistake_bound(hc, u, game="orientation") == dim


def test_oracle_horizon_caps_the_value():
    hc = full_class(3)
    u = identity_map(3)
    assert optimal_mistake_bound(hc, u, horizon=0) == 0
    assert optimal_mistake_bound(hc, u, horizon=2) == 2
    assert optimal_mistake_bound(hc, u, horizon=10) == 3


def test_oracle_refuses_a_negative_horizon():
    hc, u = full_class(3), identity_map(3)
    for game_name in ("robust", "orientation"):
        with pytest.raises(DomainError, match="horizon must be nonnegative, got -5"):
            optimal_mistake_bound(hc, u, game_name, horizon=-5)
        assert optimal_mistake_bound(hc, u, game_name, horizon=0) == 0


def test_oracle_compiles_each_distinct_move_once():
    # under the total map every input offers the same two reveals
    solver = MinimaxSolver(full_class(3), total_map(3), "robust")
    assert len(solver.moves) == 1
    assert optimal_mistake_bound(full_class(3), total_map(3)) == 1
    # the mirrored nodes ((x, x), (a, b)) and ((x, x), (b, a)) share a move
    hc, u = full_class(2, label_count=3), identity_map(2)
    assert len(game(hc, u).nodes) == 12
    assert len(MinimaxSolver(hc, u, "orientation").moves) == 6


def test_oracle_refuses_oversized_inputs():
    # the documented limits are 5 instances and 16 hypotheses
    with pytest.raises(LimitExceeded):
        optimal_mistake_bound(full_class(5), identity_map(5))


def test_oracle_multiclass_three_labels():
    hc = full_class(2, label_count=3)
    u = identity_map(2)
    assert optimal_mistake_bound(hc, u, game="robust") == adversarial_dimension(hc, u)


@pytest.mark.parametrize("label_count", [3, 4])
def test_oracle_matches_dimension_on_multiclass_corpora(label_count):
    dims = []
    for sc in generate_corpus(CorpusParams(count=60, seed=5, label_count=label_count)):
        hc, u = sc.hypotheses, sc.truth
        dim = adversarial_dimension(hc, u)
        for game in ("robust", "orientation"):
            assert optimal_mistake_bound(hc, u, game) == dim
        dims.append(dim)
    assert max(dims) >= 3
