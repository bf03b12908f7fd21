"""Unknown perturbation map: expert aggregation and phased halving."""

import math

import numpy as np
import pytest

from robust_online import (
    HypothesisClass,
    PerturbationMap,
    PerturbationFamily,
    adversarial_dimension,
    family_expected_mistakes,
    family_halving_run,
    family_loss_budget,
    full_class,
    halving_bound,
    identity_map,
    mc_family_mistakes,
    total_map,
)
from robust_online.adversaries import realizable_robust_rounds
from robust_online.errors import DomainError
from robust_online.forecaster import (
    loss_budget_rate,
    small_loss_bound,
    weight_trajectory,
)
from robust_online.seeding import derive_rng
from robust_online.uncertain import _replay, sequence_realizable

from reference import build_family_experts, expert_matrices

HC5 = HypothesisClass.from_tables(
    [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 1, 1)]
)
U5 = PerturbationMap.from_sets([{0, 1}, {1}, {1, 2}])


def small_family(truth_index=0):
    members = [
        U5,
        identity_map(3),
        total_map(3),
        PerturbationMap.from_sets([{0}, {0, 1}, {2}]),
    ]
    return PerturbationFamily(tuple(members), truth_index=truth_index)


def realizable_under_truth(family, horizon, seed):
    rng = derive_rng(seed, "uncertain-rounds")
    return realizable_robust_rounds(HC5, family.truth, horizon, rng)


def test_family_validation():
    with pytest.raises(DomainError):
        PerturbationFamily((), truth_index=0)
    with pytest.raises(DomainError):
        PerturbationFamily((U5,), truth_index=3)
    fam = small_family(truth_index=2)
    assert len(fam) == 4
    assert fam.truth is fam.members[2]


def test_family_loss_budget_is_worst_member_dimension():
    fam = small_family()
    dims = [adversarial_dimension(HC5, u) for u in fam]
    assert family_loss_budget(HC5, fam) == max(dims)


def test_small_loss_bound_formula():
    budget = 3
    n = 4
    expected = budget + math.sqrt(2 * budget * math.log(n)) + math.log(n)
    assert small_loss_bound(n, budget) == pytest.approx(expected)


def test_family_bound_holds_at_loss_budget_zero():
    """A loss budget of 0 is clamped to 1 in the bound, as in the rate.

    Both members have dimension 0, so the budget is 0, yet the wrong
    member's expert errs every round.  The forecaster's exact expected
    mistakes then exceed ln 2, the value the unclamped bound gave.
    """
    hc = HypothesisClass.from_tables([(0, 0, 1), (1, 0, 0), (1, 0, 1)])
    truth = PerturbationMap.from_sets([{1}, {0, 1, 2}, {0, 1, 2}])
    other = PerturbationMap.from_sets([{0, 1, 2}, {0, 1, 2}, {1, 2}])
    fam = PerturbationFamily((truth, other), truth_index=0)
    assert family_loss_budget(hc, fam) == 0
    rounds = realizable_robust_rounds(hc, fam.truth, 10, derive_rng(0, "budget-zero"))
    preds, losses = expert_matrices(build_family_experts(hc, fam), rounds)
    probs = weight_trajectory(preds, losses, loss_budget_rate(len(fam), 0))
    labels = np.array([y for _, _, y in rounds])
    expected = float(np.abs(probs - labels).sum())
    bound = small_loss_bound(len(fam), 0)
    assert bound == small_loss_bound(len(fam), 1)
    assert bound == pytest.approx(1 + math.sqrt(2 * math.log(2)) + math.log(2))
    assert math.log(2) < expected <= bound
    stats = mc_family_mistakes(hc, fam, rounds, seeds=range(200))
    assert stats["budget"] == 0
    assert stats["bound"] == bound
    assert stats["mean"] <= bound


def test_family_experts_tolerate_foreign_inputs():
    fam = small_family(truth_index=1)
    rounds = realizable_under_truth(fam, 8, seed=0)
    preds, losses = _replay(HC5, fam.members, rounds)
    assert preds.shape == losses.shape == (len(fam), len(rounds))
    assert set(preds.flat) <= {0, 1}


def test_true_expert_keeps_its_realizable_bound():
    for truth_index in range(4):
        fam = small_family(truth_index=truth_index)
        dim = adversarial_dimension(HC5, fam.truth)
        _, losses = _replay(HC5, fam.members, realizable_under_truth(fam, 10, seed=1))
        assert losses[truth_index].sum() <= dim


def test_sequence_realizable_detects_the_truth():
    fam = small_family(truth_index=1)
    rounds = realizable_under_truth(fam, 8, seed=2)
    assert sequence_realizable(HC5, list(fam), rounds)
    # impossible composite round: no member admits it with a survivor
    broken = [(0, 0, 0), (0, 0, 1)]
    assert not sequence_realizable(
        HypothesisClass.from_tables([(0, 0, 0)]), [identity_map(3)], broken
    )


def test_mc_family_mistakes_one_seed_reports_budget_and_expert_losses():
    fam = small_family(truth_index=0)
    rounds = realizable_under_truth(fam, 12, seed=3)
    mc = mc_family_mistakes(HC5, fam, rounds, seeds=[0])
    assert mc["budget"] == family_loss_budget(HC5, fam)
    assert mc["realizable"]
    assert 0 <= mc["values"][0] <= len(rounds)
    # the true member's expert stays within its own realizable bound
    expert_mistakes = family_halving_run(HC5, fam, rounds).expert_mistakes
    true_dim = adversarial_dimension(HC5, fam.truth)
    assert expert_mistakes[0] <= true_dim
    assert min(expert_mistakes) == mc["best_expert"] <= mc["budget"]


def test_mc_family_mistakes_meets_bound_every_truth():
    for truth_index in range(4):
        fam = small_family(truth_index=truth_index)
        rounds = realizable_under_truth(fam, 12, seed=4)
        stats = mc_family_mistakes(HC5, fam, rounds, seeds=range(80))
        assert stats["mean"] <= stats["bound"] + 3 * stats["stderr"]
        assert stats["expected"] <= stats["bound"]
        assert stats["best_expert"] <= stats["budget"]
        assert stats["realizable"]


def test_mc_family_mistakes_is_the_exact_dict_plus_the_samples():
    fam = small_family(truth_index=2)
    rounds = realizable_under_truth(fam, 12, seed=5)
    exact = family_expected_mistakes(HC5, fam, rounds)
    mc = mc_family_mistakes(HC5, fam, rounds, seeds=range(7))
    assert set(exact) == {
        "expected", "budget", "bound", "best_expert", "realizable", "probabilities"
    }
    assert list(mc) == [*exact, "mean", "std", "stderr", "values"]
    assert all(np.array_equal(mc[key], value) for key, value in exact.items())


def test_equal_family_dicts_compare_equal():
    # probabilities is a list of floats, as in expected_regret
    fam = small_family(truth_index=2)
    rounds = realizable_under_truth(fam, 12, seed=5)
    a = family_expected_mistakes(HC5, fam, rounds)
    b = family_expected_mistakes(HC5, small_family(truth_index=2), list(rounds))
    assert type(a["probabilities"]) is list
    assert all(type(p) is float for p in a["probabilities"])
    assert a == b
    assert a != {**b, "probabilities": b["probabilities"][:-1]}


def test_halving_bound_values():
    # d * (f + 1) + f with f = floor(log2 |G|) and d the true member's
    # dimension: 3d + 2 at |G| = 4, plain d at |G| = 1
    for truth_index in range(4):
        fam = small_family(truth_index=truth_index)
        dim = adversarial_dimension(HC5, fam.truth)
        assert halving_bound(HC5, fam) == 3 * dim + 2
    lone = PerturbationFamily((U5,), truth_index=0)
    assert halving_bound(HC5, lone) == adversarial_dimension(HC5, U5)


def test_halving_total_mistakes_within_bound():
    for truth_index in range(4):
        fam = small_family(truth_index=truth_index)
        rounds = realizable_under_truth(fam, 16, seed=5)
        report = family_halving_run(HC5, fam, rounds)
        assert report.mistakes <= halving_bound(HC5, fam)
        assert report.mistakes == sum(report.phase_mistakes)
        assert report.alive_count >= 1


def test_halving_single_member_family_is_the_plain_learner():
    fam = PerturbationFamily((U5,), truth_index=0)
    dim = adversarial_dimension(HC5, U5)
    rounds = realizable_under_truth(fam, 12, seed=6)
    report = family_halving_run(HC5, fam, rounds)
    assert report.mistakes <= dim
    assert report.completed_phases == 0


def test_halving_phase_cost_can_exceed_the_log_by_one():
    """Pinned counterexample: a completed phase can cost floor(log2 |G|) + 1.

    With two members, the majority vote over a split pair ties toward 1
    and errs, halving the alive set; the lone survivor may then spend its
    own allowed mistake, emptying the set.  That closes the phase at two
    mistakes even though log2(2) = 1.  The total stays within
    halving_bound, which charges every completed phase f + 1 mistakes.
    """
    u_a = PerturbationMap.from_sets([{0, 1}, set(), {2, 3}, {0, 2}])
    u_b = PerturbationMap.from_sets([set(), {0, 1}, {3}, {0}])
    fam = PerturbationFamily((u_a, u_b), truth_index=1)
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
    dim = adversarial_dimension(hc, fam.truth)
    assert dim == 2
    rng = derive_rng(1, "phase-counterexample")
    rounds = realizable_robust_rounds(hc, fam.truth, 20, rng)
    report = family_halving_run(hc, fam, rounds)
    assert report.mistakes <= halving_bound(hc, fam)
    assert max(report.phase_mistakes) == 2
    assert report.phase_mistakes[0] == 2


def test_halving_total_can_exceed_the_old_log_bound():
    """Pinned counterexample: the total reaches d * (f + 1) + f.

    Scenario 90 of criterion 9's corpus at seed 6, written out.  Two members, so f = floor(log2 2) = 1, and the true member has
    dimension 1.  The first phase closes at f + 1 = 2 mistakes, charged to
    the true expert's single mistake; the open phase then spends f = 1.
    The 3 mistakes meet halving_bound with equality and exceed
    (d + 1) * ceil(log2 |G|) = 2, so every clause of criterion 9 is tight.
    """
    u_true = PerturbationMap.from_sets([{1}, {0}])
    u_other = PerturbationMap.from_sets([{0}, set()])
    fam = PerturbationFamily((u_true, u_other), truth_index=0)
    hc = HypothesisClass.from_tables([(0, 0), (1, 0), (1, 1)])
    dim = adversarial_dimension(hc, fam.truth)
    assert dim == 1
    rng = derive_rng(6, "crit9", 90)
    rounds = realizable_robust_rounds(hc, fam.truth, 20, rng)
    report = family_halving_run(hc, fam, rounds)
    assert report.phase_mistakes == [2, 1]
    assert report.completed_phases == report.expert_mistakes[0] == dim
    assert report.mistakes == 3 == halving_bound(hc, fam)
    assert report.mistakes > (dim + 1) * math.ceil(math.log2(len(fam)))


def test_halving_report_counts_expert_mistakes():
    fam = small_family(truth_index=2)
    rounds = realizable_under_truth(fam, 12, seed=8)
    report = family_halving_run(HC5, fam, rounds)
    assert len(report.expert_mistakes) == len(fam)
    dim = adversarial_dimension(HC5, fam.truth)
    assert report.expert_mistakes[2] <= dim
