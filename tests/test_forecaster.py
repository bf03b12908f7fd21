"""Exponentially weighted forecaster: semantics, tuning, regret."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_online import (
    DomainError,
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
from robust_online.forecaster import (
    CoinTables,
    seeded_mistakes,
    weight_trajectory,
)
from robust_online.seeding import derive_rng

from reference import ExponentialWeightsForecaster, build_family_experts, expert_matrices


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


def plain_mistakes(probs, labels, stream, seeds, offset=0):
    """seeded_mistakes' summary, one fresh generator per seed."""
    mistakes = []
    for seed in seeds:
        coins = derive_rng(seed, stream).random(len(probs))
        mistakes.append(int(((coins < probs) != labels).sum()))
    values = np.array(mistakes, dtype=float) - offset
    std = float(values.std(ddof=1)) if len(values) > 1 else 0.0
    return {
        "mean": float(values.mean()),
        "std": std,
        "stderr": std / math.sqrt(len(values)),
        "values": values.tolist(),
    }


@settings(max_examples=60, deadline=None, database=None)
@given(
    st.text(max_size=6),
    st.lists(st.integers(0, 2**32), min_size=1, max_size=6),
    st.lists(st.integers(1, 24), min_size=2, max_size=4),
    st.data(),
)
def test_coin_tables_equal_each_seeds_own_generator(stream, seeds, horizons, data):
    """Rows, scores and summaries match the per-generator loop, whether the
    table is kept, sliced from a longer one, rebuilt longer, or over the
    bound and built in blocks."""
    tables = CoinTables(cells=64)
    for horizon in horizons:
        table = np.concatenate(list(tables.blocks(stream, seeds, horizon, derive_rng)))
        assert table.tolist() == [derive_rng(s, stream).random(horizon).tolist() for s in seeds]
        probs, labels = (
            np.array(data.draw(st.lists(values, min_size=horizon, max_size=horizon)))
            for values in (st.floats(0, 1), st.integers(0, 1))
        )
        offset = data.draw(st.integers(0, 3))
        coins = tables.blocks(stream, seeds, horizon, derive_rng)
        got = seeded_mistakes(probs, labels, coins, offset=offset)
        assert got == plain_mistakes(probs, labels, stream, seeds, offset)
        for kept in tables.tables.values():
            assert not kept.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                kept[0, 0] = 0.5


# long enough that seeds drawing different coins score differently
ROUNDS40 = [(t % 2, t % 2, (t * 7 // 5) % 2) for t in range(40)]


def agnostic_one_seed(seed):
    got = mc_regret(HC2, U2, ROUNDS40, seeds=[seed])
    return got, np.array(got["probabilities"]), got["comparator"]


def family_one_seed(seed):
    got = mc_family_mistakes(HC2, FAMILY2, ROUNDS40, seeds=[seed])
    experts = build_family_experts(HC2, FAMILY2.members)
    preds, losses = expert_matrices(experts, ROUNDS40)
    rate = loss_budget_rate(len(FAMILY2), got["budget"])
    return got, weight_trajectory(preds, losses, rate), 0


@pytest.mark.parametrize(
    "estimate, stream",
    [(agnostic_one_seed, "agnostic"), (family_one_seed, "family-ewa")],
)
def test_seeds_that_compare_equal_keep_their_own_coins(estimate, stream):
    """1, 1.0 and True are equal keys in Python but derive different
    generators; each estimate scores the coins of its own seed."""
    labels = np.array([y for _, _, y in ROUNDS40])
    values = []
    for seed in (1, 1.0, True):
        got, probs, offset = estimate(seed)
        assert got["values"] == plain_mistakes(probs, labels, stream, [seed], offset)["values"]
        values.append(got["values"])
    assert len({tuple(v) for v in values}) > 1


def test_coin_tables_hold_at_most_their_cell_bound():
    tables, calls = CoinTables(cells=100), []

    def derive(*parts):
        calls.append(parts)
        return derive_rng(*parts)

    for i in range(40):
        tables.blocks(f"s{i % 7}", range(i % 5 + 1), 10 + i % 3, derive)
        assert tables.held == sum(t.size for t in tables.tables.values()) <= 100
    # a kept table answers a shorter horizon without drawing again
    tables.blocks("x", range(3), 20, derive)
    drawn = len(calls)
    [short] = tables.blocks("x", range(3), 5, derive)
    assert len(calls) == drawn
    assert short.shape == (3, 5) and not short.flags.writeable
    # over the bound: scored block by block, then dropped
    probs, labels = np.linspace(0, 1, 10), np.arange(10) % 2
    kept = dict(tables.tables)
    got = seeded_mistakes(probs, labels, tables.blocks("big", range(30), 10, derive))
    assert got == plain_mistakes(probs, labels, "big", range(30))
    assert list(tables.tables) == list(kept)


def test_an_over_bound_estimate_keeps_one_block_at_a_time():
    """400 seeds by 500 rounds is a 1.6 MB table; in blocks of 4 rows the
    estimate's peak stays a small fraction of it."""
    seeds, horizon = range(400), 500
    cells = len(seeds) * horizon
    full = cells * 8  # bytes
    rng = np.random.default_rng(0)
    probs, labels = rng.random(horizon), rng.integers(0, 2, horizon)
    peaks = {}
    for bound in (2000, cells):
        tables = CoinTables(cells=bound)
        tracemalloc.start()
        try:
            got = seeded_mistakes(probs, labels, tables.blocks("mem", seeds, horizon, derive_rng))
            peaks[bound] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == plain_mistakes(probs, labels, "mem", seeds)
    assert peaks[2000] < full / 8 < full <= peaks[cells]
