"""Subset experts, regret accounting, and the decomposition inequality."""

import hashlib
import math

import numpy as np
import pytest

from robust_online import (
    HypothesisClass,
    PerturbationFamily,
    PerturbationMap,
    adversarial_dimension,
    build_subset_experts,
    comparator_loss,
    decomposition_gap,
    expected_regret,
    family_expected_mistakes,
    family_halving_run,
    full_class,
    halving_bound,
    identity_map,
    mc_family_mistakes,
    mc_regret,
    random_label_regret_sample,
    subset_expert_count,
    total_map,
)
from robust_online import agnostic
from robust_online.acceptance import FULL, _agnostic_sequences
from robust_online.adversaries import corrupt_labels, realizable_robust_rounds
from robust_online.agnostic import hypothesis_losses
from robust_online.errors import DomainError
from robust_online.learners import LazyRobustAutomaton
from robust_online.model import compiled, consistency_masks
from robust_online.seeding import derive_rng

from reference import adversarial_loss

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
    assert build_subset_experts(hc, u, horizon=5, dimension=1).size == 6
    # a dimension above the horizon is clamped to it
    pool = build_subset_experts(hc, u, horizon=2, dimension=5)
    assert (pool.size, pool.dimension) == (4, 2)


def test_build_subset_experts_accepts_oversized_pools():
    pool = build_subset_experts(full_class(2), identity_map(2), horizon=300, dimension=3)
    assert (pool.size, pool.horizon, pool.dimension) == (4500251, 300, 3)


def test_mc_regret_replays_pools_of_millions():
    hc, u = full_class(2), identity_map(2)
    rounds = [(0, 0, 1)] * 300
    mc = mc_regret(hc, u, rounds, seeds=range(3), dimension=3)
    assert mc["expert_count"] == 4500251
    assert mc["groups"] <= 4
    with pytest.raises(DomainError, match="need at least one round"):
        mc_regret(hc, u, [], seeds=range(3), dimension=3)
    assert mc_regret(hc, u, rounds[:20], seeds=range(3), dimension=3)["expert_count"] == 1351


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
        report = decomposition_gap(HC5, U5, rounds)
        subset = report["subset"]
        assert len(subset) <= dim
        assert all(0 <= t < len(rounds) for t in subset)
        assert (report["comparator"], report["best_hypothesis"]) == comparator_loss(
            HC5, U5, rounds
        )


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
    assert result["expected"] <= bound
    assert len(result["values"]) == 150


def test_mc_regret_is_the_exact_dict_plus_the_samples():
    rounds = corrupted_rounds(HC5, U5, 10, 2, seed=2)
    exact = expected_regret(HC5, U5, rounds)
    mc = mc_regret(HC5, U5, rounds, seeds=range(7))
    assert set(exact) == {
        "expected", "comparator", "expert_count", "groups", "bound", "probabilities"
    }
    assert list(mc) == [*exact, "mean", "std", "stderr", "values"]
    assert all(np.array_equal(mc[key], value) for key, value in exact.items())


def test_mc_regret_reports_the_agnostic_bound():
    horizon = 10
    dim = adversarial_dimension(HC5, U5)
    assert dim >= 1
    rounds = corrupted_rounds(HC5, U5, horizon, 2, seed=1)
    n_experts = subset_expert_count(horizon, dim)
    bound = dim + math.sqrt(horizon / 2 * math.log(n_experts))
    assert mc_regret(HC5, U5, rounds, seeds=range(3))["bound"] == bound
    assert mc_regret(HC5, U5, rounds, seeds=range(3), dimension=dim)["bound"] == bound


REPLAY_SHAPES = ((1, 99), (1, 199), (2, 20), (2, 30), (2, 40))


def pinned_estimates():
    """(class, map, rounds, dimension) of criterion 8's seed-0 estimates at
    full scale, then one corrupted sequence per (dimension, horizon) shape
    of the benchmark's regret estimates, on the first of those classes
    with that dimension."""
    first = {}
    for hc, u, rounds, dim in _agnostic_sequences(FULL, 0):
        first.setdefault(dim, (hc, u))
        yield hc, u, rounds, dim
    for dim, horizon in REPLAY_SHAPES:
        hc, u = first[dim]
        rng = derive_rng(0, "pinned-regret", dim, horizon)
        rounds = realizable_robust_rounds(hc, u, horizon, rng)
        yield hc, u, corrupt_labels(rounds, 2, hc.label_count, rng), dim


def test_pinned_regret_estimates():
    """Each seed's regret and the probabilities to 12 places.  The digest
    was recorded when mc_regret stepped every expert of the pool, so a
    coin flipped by the groups' rounding fails here on every NumPy."""
    digest = hashlib.sha256()
    for hc, u, rounds, dim in pinned_estimates():
        mc = mc_regret(hc, u, rounds, seeds=range(200), dimension=dim)
        digest.update(repr((mc["values"], [round(p, 12) for p in mc["probabilities"]])).encode())
    assert digest.hexdigest() == (
        "2e01326ffca9e14bfc3ba3ba14cb553f2f84870aa625f1a424399d3d3016ee6e"
    )


@pytest.mark.parametrize(
    "count, rate",
    [(8, 0.5), (6, 0.5), (5, math.nan), (5, 0.0), (5, -1.0), (5, 1e6), (5, math.inf)],
    ids=["8-rounds", "6-rounds", "rate-nan", "rate-0", "rate-negative", "rate-underflowing-decay",
         "rate-inf"],
)
def test_group_replay_refuses_what_it_is_not_defined_for(count, rate):
    hc, u = full_class(2), total_map(2)
    rounds = corrupted_rounds(hc, u, 8, 2, seed=3)
    with pytest.raises(ValueError):
        build_subset_experts(hc, u, 5).group_trajectory(rounds[:count], rate)


def test_group_replay_of_fewer_rounds_is_a_prefix():
    hc, u = full_class(2), total_map(2)
    rounds = corrupted_rounds(hc, u, 5, 2, seed=3)
    pool = build_subset_experts(hc, u, 5)
    probs, _ = pool.group_trajectory(rounds, 0.5)
    for count in range(5):
        assert pool.group_trajectory(rounds[:count], 0.5)[0] == probs[:count]


def test_live_groups_stay_few():
    hc = HypothesisClass.from_tables([(0, 1)])
    u = identity_map(2)
    assert adversarial_dimension(hc, u) == 0
    rounds = corrupted_rounds(hc, u, 30, 5, seed=2)
    assert mc_regret(hc, u, rounds, seeds=[0])["groups"] == 1
    *_, (hc, u, rounds, dim) = pinned_estimates()
    mc = mc_regret(hc, u, rounds, seeds=[0], dimension=dim)
    assert mc["expert_count"] == 821
    assert 1 < mc["groups"] < 20


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
        z = random_label_regret_sample(hc, u, 64, seed)["perturbed_input"]
    auto = compiled(hc, u, LazyRobustAutomaton)
    ctx = auto.ctx
    # full class, one survivor, empty: each state predicts once on the one
    # input and is stepped only on the reveal it gets wrong, since a
    # correct round is a self-loop; the empty state's mistake edge is a
    # self-loop too, after which the probe counts the rest of the labels
    assert len(ctx.states) == 3
    assert [mask.bit_count() for mask, _ in ctx.states] == [4, 1, 0]
    # the empty state predicts 0 without the context's memo, whose array
    # holds one row per state and a decided entry for the other two
    assert len(ctx.predictions) == len(ctx.states) * ctx.n
    decided = [key for key, pred in enumerate(ctx.predictions) if pred != ctx.undecided]
    assert decided == [s * ctx.n + z for s in (0, 1)]
    assert len(auto.transitions) == 3
    # the compiled chain: a mistake label per state, the empty state's
    # self-loop last
    chain = compiled(hc, u, agnostic._build_probe)[3]
    assert [absorbing for _, absorbing in chain] == [False, False, True]
    keys = set(hc._store)
    random_label_regret_sample(hc, u, 64, seed=8)
    assert set(hc._store) == keys


def test_random_label_probe_rejects_a_negative_horizon():
    hc, u = full_class(2), total_map(2)
    with pytest.raises(DomainError, match="horizon must be nonnegative, got -1"):
        random_label_regret_sample(hc, u, -1, seed=0)
    empty = random_label_regret_sample(hc, u, 0, seed=0)
    assert (empty["mistakes"], empty["comparator"], empty["regret"]) == (0, 0, 0)


def test_pinned_random_label_probes():
    """Every field of 900 probes: horizons around the label scan's edges,
    on full_class(2) under the total map and on a dimension-2 class whose
    pairs (2i, 2i + 1) share the input 2i.  The digest was recorded when
    the probe scanned a list of the labels, so a byte scan that misses or
    miscounts a label fails here on every NumPy."""
    paired = PerturbationMap.from_sets([{2 * (x // 2)} for x in range(4)])
    digest = hashlib.sha256()
    for hc, u in ((full_class(2), total_map(2)), (full_class(4), paired)):
        for horizon in (0, 1, 2, 3, 63, 64, 65, 256, 1024):
            for seed in range(50):
                digest.update(repr(random_label_regret_sample(hc, u, horizon, seed)).encode())
    assert digest.hexdigest() == (
        "5797143612005c6acee3ec08538997f02ec9419019e4a48d545da36b6781e9b6"
    )


def test_random_label_probe_node_is_built_once(monkeypatch):
    calls = []
    witness = agnostic.witness_tree

    def counted(hc, u, *args):
        calls.append(hc)
        return witness(hc, u, *args)

    monkeypatch.setattr(agnostic, "witness_tree", counted)
    hc, u = full_class(2), total_map(2)
    # the tree, the masks and the automaton the probe node is made from
    witness(hc, u)
    consistency_masks(hc, u)
    compiled(hc, u, LazyRobustAutomaton)
    keys = set(hc._store)
    for horizon in (0, 64, 1024):
        for seed in range(10):
            random_label_regret_sample(hc, u, horizon, seed)
    assert len(calls) == 1
    assert len(set(hc._store) - keys) == 1

    calls.clear()
    flat = HypothesisClass.from_tables([(0, 1)])
    for _ in range(3):
        with pytest.raises(DomainError, match="need dimension >= 1"):
            random_label_regret_sample(flat, identity_map(2), 64, seed=0)
    assert len(calls) == 3
    assert not any(key[1] is agnostic._build_probe for key in flat._store)

    with pytest.raises(DomainError):
        random_label_regret_sample(full_class(2, 3), total_map(2), 64, seed=0)


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


# The binary-only entry points refuse a class with more than two labels
# through binary_context, before they search or compile anything.
BINARY_ONLY = {
    "expected_regret": lambda hc, u, fam, rounds: expected_regret(hc, u, rounds),
    "mc_regret": lambda hc, u, fam, rounds: mc_regret(hc, u, rounds, seeds=[0]),
    "decomposition_gap": lambda hc, u, fam, rounds: decomposition_gap(hc, u, rounds),
    "random_label_regret_sample": lambda hc, u, fam, rounds: random_label_regret_sample(
        hc, u, 8, seed=0
    ),
    "family_expected_mistakes": lambda hc, u, fam, rounds: family_expected_mistakes(
        hc, fam, rounds
    ),
    "mc_family_mistakes": lambda hc, u, fam, rounds: mc_family_mistakes(
        hc, fam, rounds, seeds=[0]
    ),
    "family_halving_run": lambda hc, u, fam, rounds: family_halving_run(hc, fam, rounds),
    "halving_bound": lambda hc, u, fam, rounds: halving_bound(hc, fam),
}


@pytest.mark.parametrize("name", sorted(BINARY_ONLY))
def test_binary_only_entry_points_refuse_three_labels(name):
    hc, u = full_class(2, label_count=3), identity_map(2)
    family = PerturbationFamily((u, total_map(2)))
    rounds = [(0, 0, 2), (1, 1, 0), (1, 1, 1)]
    with pytest.raises(DomainError):
        BINARY_ONLY[name](hc, u, family, rounds)
    # refused before any search: nothing was compiled for the class
    assert hc._store == {}


# The entry points that take rounds refuse an input, instance or label id
# out of range, before they compile or replay anything for the class.
ROUND_TAKERS = {
    **{k: f for k, f in BINARY_ONLY.items() if k not in ("halving_bound", "random_label_regret_sample")},
    "comparator_loss": lambda hc, u, fam, rounds: comparator_loss(hc, u, rounds),
}


@pytest.mark.parametrize("name", sorted(ROUND_TAKERS))
@pytest.mark.parametrize("field, what", [(0, "input"), (1, "instance"), (2, "label")])
@pytest.mark.parametrize("high", [False, True])
def test_round_ids_out_of_range_are_refused_before_any_compile(name, field, what, high):
    hc = full_class(3)
    family = PerturbationFamily((U5, identity_map(3)))
    limit = hc.label_count if what == "label" else hc.instance_count
    bad = [1, 2, 1]
    bad[field] = limit if high else -1
    rounds = [(1, 0, 0), (1, 1, 1), tuple(bad)]
    with pytest.raises(DomainError, match=rf"^{what} id {bad[field]} outside \[0, {limit}\)$"):
        ROUND_TAKERS[name](hc, U5, family, rounds)
    assert hc._store == {}
