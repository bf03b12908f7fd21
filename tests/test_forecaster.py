"""Exponentially weighted forecaster: semantics, tuning, regret."""

import math

import numpy as np
import pytest

from robust_online import (
    DomainError,
    ExponentialWeightsForecaster,
    PerturbationFamily,
    decomposition_gap,
    family_halving_run,
    full_class,
    horizon_rate,
    horizon_regret_bound,
    identity_map,
    loss_budget_rate,
    mc_family_mistakes,
    mc_regret,
    small_loss_bound,
    total_map,
)
from robust_online.forecaster import expert_matrices, weight_trajectory
from robust_online.seeding import derive_rng


def test_unanimous_vote_is_certain():
    f = ExponentialWeightsForecaster(3, rate=0.5)
    assert f.probability([1, 1, 1]) == 1.0
    assert f.probability([0, 0, 0]) == 0.0


def test_equal_weights_split_vote():
    f = ExponentialWeightsForecaster(2, rate=0.5)
    assert f.probability([0, 1]) == pytest.approx(0.5)


def test_weight_scale_invariance():
    f = ExponentialWeightsForecaster(3, rate=0.5)
    f.weights = np.array([0.2, 0.5, 0.3])
    p = f.probability([1, 0, 1])
    f.weights = f.weights * 17.0
    assert f.probability([1, 0, 1]) == pytest.approx(p)


def test_zero_losses_keep_relative_weights():
    f = ExponentialWeightsForecaster(3, rate=0.5)
    f.weights = np.array([0.2, 0.5, 0.3])
    before = f.weights / f.weights.sum()
    f.update([0, 0, 0])
    after = f.weights / f.weights.sum()
    assert np.allclose(before, after)


def test_unit_loss_ratio_closed_form():
    rate = 0.37
    f = ExponentialWeightsForecaster(2, rate=rate)
    k = 5
    for _ in range(k):
        f.update([1, 0])
    assert f.weights[0] / f.weights[1] == pytest.approx(math.exp(-rate * k))


def test_loser_weight_strictly_decreases():
    f = ExponentialWeightsForecaster(2, rate=0.1)
    before = f.weights[0] / f.weights.sum()
    f.update([1, 0])
    assert f.weights[0] / f.weights.sum() < before


def test_rates_and_bounds_formulas():
    assert horizon_rate(8, 1000) == pytest.approx(math.sqrt(8 * math.log(8) / 1000))
    assert horizon_regret_bound(8, 1000) == pytest.approx(
        math.sqrt(500 * math.log(8))
    )
    # the frozen reference value for the N=8, T=1000 regime
    assert horizon_regret_bound(8, 1000) == pytest.approx(32.245, abs=0.005)
    assert loss_budget_rate(8, 4) == pytest.approx(
        math.log(1 + math.sqrt(2 * math.log(8) / 4))
    )
    assert small_loss_bound(8, 4) == pytest.approx(
        4 + math.sqrt(8 * math.log(8)) + math.log(8)
    )


def test_rate_input_validation():
    with pytest.raises(ValueError):
        horizon_rate(0, 10)
    with pytest.raises(ValueError):
        horizon_rate(2, 0)
    with pytest.raises(ValueError):
        ExponentialWeightsForecaster(2, rate=0.0)
    # a zero loss budget is clamped rather than rejected
    assert loss_budget_rate(4, 0) == loss_budget_rate(4, 1)


def test_weight_trajectory_matches_stepwise_forecaster():
    rng = np.random.default_rng(13)
    n, horizon = 5, 40
    preds = rng.integers(0, 2, (n, horizon))
    losses = rng.integers(0, 2, (n, horizon))
    rate = 0.3
    probs = weight_trajectory(preds, losses, rate)
    f = ExponentialWeightsForecaster(n, rate)
    for t in range(horizon):
        assert probs[t] == pytest.approx(f.probability(preds[:, t]))
        f.update(losses[:, t])


def test_regret_bound_one_perfect_expert():
    # N=8 experts over T=1000 adversarial bits; expert 0 is always right,
    # the others are wrong with probability 1/2; mean excess mistakes
    # over seeds must stay within sqrt((T/2) ln 8), about 32.2
    n, horizon, n_seeds = 8, 1000, 120
    rate = horizon_rate(n, horizon)
    gen = derive_rng(0, "forecaster-regret")
    labels = gen.integers(0, 2, horizon)
    preds = np.empty((n, horizon), dtype=int)
    preds[0] = labels
    preds[1:] = np.where(
        gen.random((n - 1, horizon)) < 0.5, labels, 1 - labels
    )
    losses = (preds != labels).astype(int)
    probs = weight_trajectory(preds, losses, rate)
    # per-round mistake probability of the sampled forecaster
    expected = np.where(labels == 1, 1 - probs, probs)
    sampler = derive_rng(1, "forecaster-regret-sample")
    sampled = np.array(
        [
            (sampler.random(horizon) < expected).sum()
            for _ in range(n_seeds)
        ],
        dtype=float,
    )
    best = losses.sum(axis=1).min()
    assert best == 0
    bound = horizon_regret_bound(n, horizon)
    stderr = sampled.std(ddof=1) / math.sqrt(n_seeds)
    assert sampled.mean() - best <= bound + 3 * stderr
    # the analytic expectation needs no sampling slack
    assert expected.sum() - best <= bound


HC2, U2 = full_class(2), identity_map(2)
FAMILY2 = PerturbationFamily((U2, total_map(2)))
ROUNDS2 = [(0, 0, 1), (1, 1, 0)]


@pytest.mark.parametrize(
    "replay",
    [
        lambda: expert_matrices([], []),
        lambda: mc_regret(HC2, U2, [], seeds=range(3)),
        lambda: mc_regret(HC2, U2, ROUNDS2, seeds=[]),
        lambda: decomposition_gap(HC2, U2, []),
        lambda: mc_family_mistakes(HC2, FAMILY2, [], seeds=range(3)),
        lambda: mc_family_mistakes(HC2, FAMILY2, ROUNDS2, seeds=[]),
        lambda: family_halving_run(HC2, FAMILY2, []),
    ],
    ids=[
        "matrices-rounds",
        "mc-regret-rounds",
        "mc-regret-seeds",
        "decomposition-rounds",
        "mc-family-rounds",
        "mc-family-seeds",
        "halving-rounds",
    ],
)
def test_replays_reject_empty_rounds_and_seeds(replay):
    with pytest.raises(DomainError, match="at least one"):
        replay()
