"""Realizable learners: orientation SOA, the reduction, lazy wrapping."""

import numpy as np
import pytest

from robust_online import (
    BASELINES,
    HypothesisClass,
    OrientationQuery,
    PerturbationMap,
    RobustReductionLearner,
    ScriptedOrientationAdversary,
    SoaOrientationLearner,
    adversarial_dimension,
    full_class,
    identity_map,
    make_learner,
    random_label_regret_sample,
    run_orientation_game,
    total_map,
    witness_tree,
)
from robust_online.adversaries import (
    realizable_orientation_rounds,
    realizable_robust_rounds,
)
from robust_online.dimension import dimension_of
from robust_online.errors import ProtocolViolation
from robust_online.learners import LazyOrientationLearner, LazyRobustLearner, LearnerContext
from robust_online.model import VersionSpace
from robust_online.seeding import derive_rng

from reference import EmptiedPredictsZero, agnostic_learner

HC5 = HypothesisClass.from_tables(
    [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 1, 1)]
)
U5 = PerturbationMap.from_sets([{0, 1}, {1}, {1, 2}])

# h(0)=1 on four hypotheses, one all-zero hypothesis; restricting by
# (0,1) leaves the full class on the other two points (dimension 2)
# while (0,0) leaves the single constant (dimension 0)
HC6 = HypothesisClass.from_tables(
    [(1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1), (0, 0, 0)]
)


def random_scenarios(seed, count, max_n=5, max_h=9):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = int(rng.integers(2, max_n))
        tables = sorted(
            {
                tuple(int(v) for v in rng.integers(0, 2, n))
                for _ in range(int(rng.integers(2, max_h)))
            }
        )
        sets = [set(np.flatnonzero(rng.integers(0, 2, n))) for _ in range(n)]
        u = PerturbationMap.from_sets(sets)
        if any(sets):
            out.append((HypothesisClass.from_tables(tables), u))
    return out


def test_soa_predicts_larger_side_dimension():
    learner = SoaOrientationLearner(HC6, identity_map(3))
    q = OrientationQuery(pair=(0, 0), labels=(0, 1))
    d0, d1 = learner.side_dimensions(q)
    assert (d0, d1) == (0, 2)
    assert learner.predict(q) == 1


def test_soa_never_picks_an_empty_side():
    hc = HypothesisClass.from_tables([(1, 1)])
    learner = SoaOrientationLearner(hc, total_map(2))
    q = OrientationQuery(pair=(0, 1), labels=(0, 1))
    assert learner.predict(q) == 1


def test_soa_tie_breaks_toward_first_label():
    learner = SoaOrientationLearner(full_class(2), identity_map(2))
    q = OrientationQuery(pair=(0, 1), labels=(0, 1))
    d0, d1 = learner.side_dimensions(q)
    assert d0 == d1
    assert learner.predict(q) == 0


def test_soa_correct_round_keeps_mistake_count():
    learner = SoaOrientationLearner(full_class(2), identity_map(2))
    q = OrientationQuery(pair=(0, 1), labels=(0, 1))
    pred = learner.predict(q)
    before = learner.mask.bit_count()
    # binary labels: revealing side `pred` reveals the predicted label
    assert q.labels[pred] == pred
    learner.update(q, pred)
    assert learner.mask.bit_count() <= before


def test_soa_strict_mode_rejects_non_realizable_reveals():
    hc = HypothesisClass.from_tables([(0, 0)])
    learner = SoaOrientationLearner(hc, identity_map(2), strict=True)
    q = OrientationQuery(pair=(0, 1), labels=(0, 1))
    with pytest.raises(ProtocolViolation):
        learner.update(q, 1)


def test_soa_dimension_drops_on_each_mistake():
    for hc, u in random_scenarios(seed=37, count=25):
        rng = derive_rng(1, "drop", hc.size)
        rounds = realizable_orientation_rounds(hc, u, 10, rng)
        learner = SoaOrientationLearner(hc, u)
        for q, side in rounds:
            pred = learner.predict(q)
            before = dimension_of(VersionSpace(hc, learner.mask), u)
            learner.update(q, side)
            if pred != q.labels[side]:
                assert dimension_of(VersionSpace(hc, learner.mask), u) < before


def test_reduction_vacuous_zero_candidates_predicts_one():
    hc = HypothesisClass.from_tables([(1, 1)])
    learner = RobustReductionLearner(hc, identity_map(2))
    # P_0 empty, P_1 = {0}: the universal over the empty set holds
    assert learner.predict(0) == 1


def test_reduction_no_candidates_fallback_is_one():
    hc = full_class(2)
    u = PerturbationMap.from_sets([{1}, {1}])
    learner = RobustReductionLearner(hc, u)
    # no instance perturbs to 0, so both candidate sets are empty
    assert learner.predict(0) == 1


def test_reduction_strict_dominance_case():
    learner = RobustReductionLearner(HC6, identity_map(3))
    assert learner.predict(0) == 1


def test_reduction_tie_driven_case():
    # every restricted side has dimension 0, ties all point at label 0
    for z in range(3):
        learner = RobustReductionLearner(HC5, U5)
        assert learner.predict(z) == 0


def orientation_size(learner):
    """The size of a robust learner's orientation version space."""
    return learner.ctx.states[learner.s][1].bit_count()


def test_reduction_mistake_grows_orientation_history():
    # a mistake feeds the orientation learner one query, shrinking its
    # version space to the all-zero hypothesis; a correct round feeds none
    learner = RobustReductionLearner(HC6, identity_map(3))
    assert learner.predict(0) == 1
    learner.update(0, 0, 0)
    assert orientation_size(learner) == 1
    learner2 = RobustReductionLearner(HC6, identity_map(3))
    assert learner2.predict(0) == 1
    learner2.update(0, 0, 1)
    assert orientation_size(learner2) == HC6.size


def test_reduction_tolerant_mode_flags_outside_inputs():
    hc = full_class(2)
    u = PerturbationMap.from_sets([{0}, {1}])
    strict = RobustReductionLearner(hc, u)
    with pytest.raises(ProtocolViolation):
        strict.update(1, 0, 0)
    tolerant = RobustReductionLearner(hc, u, strict=False)
    tolerant.predict(1)
    tolerant.update(1, 0, 0)
    assert "input-outside-belief" in tolerant.events


def test_reduction_bounded_on_random_realizable_runs():
    for hc, u in random_scenarios(seed=41, count=30):
        dim = adversarial_dimension(hc, u)
        rng = derive_rng(2, "bound", hc.size, u.instance_count)
        rounds = realizable_robust_rounds(hc, u, 12, rng)
        learner = RobustReductionLearner(hc, u)
        mistakes = 0
        for z, x, y in rounds:
            mistakes += learner.predict(z) != y
            learner.update(z, x, y)
        assert mistakes <= dim


def test_lazy_identity_on_mistake_free_runs():
    hc = HypothesisClass.from_tables([(0, 0), (1, 1)])
    u = identity_map(2)
    lazy = LazyRobustLearner(RobustReductionLearner(hc, u))
    mask_before = lazy.inner.mask
    state_before = lazy.inner.s
    for z in (0, 1):
        pred = lazy.predict(z)
        lazy.update(z, z, pred)
    assert lazy.inner.mask == mask_before
    assert lazy.inner.s == state_before


def test_lazy_keeps_realizable_mistake_bound():
    for hc, u in random_scenarios(seed=47, count=25):
        dim = adversarial_dimension(hc, u)
        rng = derive_rng(4, "lazy", hc.size)
        rounds = realizable_robust_rounds(hc, u, 12, rng)
        lazy = LazyRobustLearner(RobustReductionLearner(hc, u))
        mistakes = 0
        for z, x, y in rounds:
            mistakes += lazy.predict(z) != y
            lazy.update(z, x, y)
        assert mistakes <= dim


def test_lazy_wrappers_predict_once_per_round(monkeypatch):
    calls, decided = [], []
    predict, decide = EmptiedPredictsZero.predict, LearnerContext._decide

    def counted(self, z):
        calls.append(z)
        return predict(self, z)

    def counted_decide(self, s, z):
        decided.append((s, z))
        return decide(self, s, z)

    monkeypatch.setattr(EmptiedPredictsZero, "predict", counted)
    monkeypatch.setattr(LearnerContext, "_decide", counted_decide)
    # the random-label probe's rounds, played on the wrapper itself
    hc, u, horizon = full_class(2), total_map(2), 64
    pair = witness_tree(hc, u).root.pair
    z = min(u.forward[pair[0]] & u.forward[pair[1]])
    labels = derive_rng(3, "random-label-probe").integers(0, 2, size=horizon)
    lazy = agnostic_learner(hc, u)
    mistakes = 0
    for y in labels.tolist():
        mistakes += lazy.predict(z) != y
        lazy.update(z, pair[y], y)
    assert mistakes > 0
    assert len(calls) == horizon
    assert random_label_regret_sample(hc, u, horizon, seed=3)["mistakes"] == mistakes
    # the package's lazy tolerant learner on the same rounds, on a fresh
    # class: update reads the context's memo again, so each (state,
    # input) is decided once
    decided.clear()
    lazy = LazyRobustLearner(RobustReductionLearner(full_class(2), u, strict=False))
    for y in labels.tolist():
        lazy.predict(z)
        lazy.update(z, pair[y], y)
    assert decided and len(set(decided)) == len(decided)

    class CountingOrientation:
        game = "orientation"
        asked = 0

        def predict(self, query):
            self.asked += 1
            return query.labels[1]

        def update(self, query, side):
            pass

    inner = CountingOrientation()
    lazy = LazyOrientationLearner(inner)
    rounds = realizable_orientation_rounds(HC5, U5, 8, derive_rng(2, "lazy"))
    mistakes = 0
    for query, side in rounds:
        mistakes += lazy.predict(query) != query.labels[side]
        lazy.update(query, side)
    assert mistakes > 0
    assert inner.asked == len(rounds) == 8


def test_orientation_queries_are_looked_up_once(monkeypatch):
    looked_up = []
    side_dimensions = SoaOrientationLearner.side_dimensions

    def counted(self, query):
        looked_up.append(query)
        return side_dimensions(self, query)

    monkeypatch.setattr(SoaOrientationLearner, "side_dimensions", counted)
    hc, u = full_class(3), total_map(3)
    rounds = realizable_orientation_rounds(hc, u, 50, derive_rng(0, "once"))
    played, _ = run_orientation_game(
        hc, u, SoaOrientationLearner(hc, u), ScriptedOrientationAdversary(rounds), 50
    )
    assert sum(r.loss for r in played) > 0
    assert len(looked_up) == len(played) == 50

    # a robust mistake orients the fed counterpart once, to find it
    oriented = []
    orient = LearnerContext._orient

    def counted_orient(self, orientation_mask, a, y, b, y2):
        oriented.append(OrientationQuery((a, b), (y, y2)))
        return orient(self, orientation_mask, a, y, b, y2)

    monkeypatch.setattr(LearnerContext, "_orient", counted_orient)
    learner = RobustReductionLearner(HC6, identity_map(3))
    assert learner.predict(0) == 1
    oriented.clear()
    learner.update(0, 0, 0)
    assert oriented == [OrientationQuery((0, 0), (0, 1))]
    assert orientation_size(learner) == 1


def test_learner_registry_names_and_games():
    hc = full_class(2)
    u = identity_map(2)
    rng = np.random.default_rng(0)
    for name in ("optimal",) + BASELINES:
        for game in ("orientation", "robust"):
            learner = make_learner(name, game, hc, u, rng=rng)
            assert hasattr(learner, "predict")
            assert hasattr(learner, "update")
    with pytest.raises(ValueError):
        make_learner("nope", "robust", hc, u)
    with pytest.raises(ValueError):
        make_learner("optimal", "nope", hc, u)
