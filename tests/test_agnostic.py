"""Subset experts, regret accounting, and the decomposition inequality."""

import math

import numpy as np
import pytest

from robust_online import (
    HypothesisClass,
    PerturbationMap,
    adversarial_dimension,
    build_subset_experts,
    comparator_loss,
    decomposition_gap,
    full_class,
    identity_map,
    mc_regret,
    random_label_regret_sample,
    subset_expert_count,
    total_map,
)
from robust_online.adversaries import corrupt_labels, realizable_robust_rounds
from robust_online.agnostic import analysis_subset, hypothesis_losses
from robust_online.errors import LimitExceeded
from robust_online.learners import LazyRobustAutomaton
from robust_online.model import adversarial_loss, compiled
from robust_online.seeding import derive_rng

HC5 = HypothesisClass.from_tables(
    [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 1, 1)]
)
U5 = PerturbationMap.from_sets([{0, 1}, {1}, {1, 2}])


def corrupted_rounds(hc, u, horizon, corruptions, seed):
    rng = derive_rng(seed, "corrupted")
    rounds = realizable_robust_rounds(hc, u, horizon, rng)
    return corrupt_labels(rounds, corruptions, hc.label_count, rng)


def test_subset_expert_counts():
    assert subset_expert_count(5, 0) == 1
    assert subset_expert_count(5, 1) == 6
    assert subset_expert_count(12, 2) == 79
    assert subset_expert_count(4, 4) == 16


def test_build_subset_experts_enumerates_small_subsets():
    hc = full_class(2)
    u = identity_map(2)
    experts = build_subset_experts(hc, u, horizon=5, dimension=1)
    assert len(experts) == 6
    assert experts[0].indices == frozenset()
    singletons = {frozenset({t}) for t in range(5)}
    assert {e.indices for e in experts[1:]} == singletons


def test_build_subset_experts_refuses_oversized_pools():
    hc = full_class(2)
    u = identity_map(2)
    with pytest.raises(LimitExceeded):
        build_subset_experts(hc, u, horizon=300, dimension=3)


def test_comparator_is_exact_envelope_minimum():
    rounds = corrupted_rounds(HC5, U5, 10, 2, seed=5)
    losses = hypothesis_losses(HC5, U5, rounds)
    best, h_id = comparator_loss(HC5, U5, rounds)
    assert best == min(losses)
    assert losses[h_id] == best
    manual = [
        sum(adversarial_loss(h, x, y, U5) for _, x, y in rounds)
        for h in HC5
    ]
    assert manual == losses


def test_comparator_at_most_corruption_count():
    for seed in range(8):
        for k in (0, 1, 2, 3):
            rounds = corrupted_rounds(HC5, U5, 10, k, seed=seed)
            best, _ = comparator_loss(HC5, U5, rounds)
            assert best <= k


def test_realizable_sequences_have_zero_comparator():
    rng = derive_rng(7, "realizable")
    rounds = realizable_robust_rounds(HC5, U5, 10, rng)
    best, _ = comparator_loss(HC5, U5, rounds)
    assert best == 0


def test_decomposition_inequality_on_corrupted_runs():
    dim = adversarial_dimension(HC5, U5)
    for seed in range(12):
        rounds = corrupted_rounds(HC5, U5, 10, seed % 4, seed=seed)
        report = decomposition_gap(HC5, U5, rounds)
        assert report["expert_mistakes"] <= dim + report["comparator"]
        assert report["gap"] >= 0


def test_analysis_subset_size_bounded_by_dimension():
    dim = adversarial_dimension(HC5, U5)
    for seed in range(10):
        rounds = corrupted_rounds(HC5, U5, 10, 2, seed=seed)
        subset, best, best_id = analysis_subset(HC5, U5, rounds)
        assert len(subset) <= dim
        assert all(0 <= t < len(rounds) for t in subset)
        assert best == comparator_loss(HC5, U5, rounds)[0]


def test_mc_regret_one_seed_accounting_is_exact():
    rounds = corrupted_rounds(HC5, U5, 10, 2, seed=3)
    mc = mc_regret(HC5, U5, rounds, seeds=[0])
    probs = mc["probabilities"]
    assert len(probs) == len(rounds)
    assert all(0.0 <= p <= 1.0 for p in probs)
    assert mc["expert_count"] == subset_expert_count(
        len(rounds), adversarial_dimension(HC5, U5)
    )
    # the one value is the seed's mistakes minus the comparator loss
    coins = derive_rng(0, "agnostic").random(len(rounds)) < np.array(probs)
    mistakes = int((coins != np.array([y for _, _, y in rounds])).sum())
    assert mc["values"] == [mistakes - mc["comparator"]]
    assert mc["mean"] == mc["values"][0]


def test_mc_regret_one_seed_is_deterministic():
    rounds = corrupted_rounds(HC5, U5, 10, 2, seed=3)
    a = mc_regret(HC5, U5, rounds, seeds=[4])
    b = mc_regret(HC5, U5, rounds, seeds=[4])
    c = mc_regret(HC5, U5, rounds, seeds=[5])
    assert a["values"] == b["values"]
    assert a["probabilities"] == b["probabilities"]
    # a different seed may sample differently but keeps the comparator
    # and the trajectory
    assert a["comparator"] == c["comparator"]
    assert a["probabilities"] == c["probabilities"]


def test_mc_regret_within_theory_bound():
    horizon = 10
    dim = adversarial_dimension(HC5, U5)
    rounds = corrupted_rounds(HC5, U5, horizon, 2, seed=0)
    result = mc_regret(HC5, U5, rounds, seeds=range(150))
    n_experts = subset_expert_count(horizon, dim)
    assert result["expert_count"] == n_experts
    bound = dim + math.sqrt(horizon / 2 * math.log(n_experts))
    assert result["mean"] <= bound + 3 * result["stderr"]
    assert len(result["values"]) == 150


def test_mc_regret_reports_the_agnostic_bound():
    horizon = 10
    dim = adversarial_dimension(HC5, U5)
    assert dim >= 1
    rounds = corrupted_rounds(HC5, U5, horizon, 2, seed=1)
    n_experts = subset_expert_count(horizon, dim)
    bound = dim + math.sqrt(horizon / 2 * math.log(n_experts))
    assert mc_regret(HC5, U5, rounds, seeds=range(3))["bound"] == bound
    assert mc_regret(HC5, U5, rounds, seeds=range(3), dimension=dim)["bound"] == bound


def test_random_label_probe_learner_loses_half_the_rounds():
    hc = full_class(2)
    u = total_map(2)
    horizon = 200
    samples = [
        random_label_regret_sample(hc, u, horizon, seed)
        for seed in range(60)
    ]
    mean_loss = np.mean([s["mistakes"] for s in samples])
    # labels are independent of predictions, so the mean sits near T/2;
    # per-round variance is at most 1/4, hence the stderr below
    stderr = math.sqrt(horizon / 4 / 60)
    assert abs(mean_loss - horizon / 2) < 4 * stderr
    for s in samples:
        assert s["comparator"] <= horizon / 2
        assert s["regret"] == s["mistakes"] - s["comparator"]


def test_probes_intern_three_states_in_one_automaton():
    hc, u = full_class(2), total_map(2)
    for seed in range(8):
        random_label_regret_sample(hc, u, 64, seed)
    auto = compiled(hc, u, LazyRobustAutomaton)
    # full class, one survivor, empty: each state predicts once on the one
    # input and moves on each of the two reveals
    assert len(auto.states) == 3
    assert len(auto.predictions) == 3
    assert len(auto.transitions) == 6
    keys = set(hc._store)
    random_label_regret_sample(hc, u, 64, seed=8)
    assert set(hc._store) == keys


def test_random_label_probe_regret_grows_with_horizon():
    hc = full_class(2)
    u = total_map(2)
    means = []
    for horizon in (64, 1024):
        vals = [
            random_label_regret_sample(hc, u, horizon, seed)["regret"]
            for seed in range(80)
        ]
        means.append(np.mean(vals))
    # sqrt scaling: quadrupling T should far more than double the regret
    assert means[1] > 2 * means[0]
