"""Dimension computation against hand-frozen brute-force values.

The frozen integers below were produced by a standalone exhaustive
shattering search written directly from the tree definitions, kept
outside the package so the two implementations share no code.
"""

import numpy as np
import pytest

from robust_online import (
    EMPTY_DIM,
    AdversarialTree,
    AdversarialTreeNode,
    DomainError,
    HypothesisClass,
    PerturbationMap,
    RobustReductionLearner,
    SoaOrientationLearner,
    VersionSpace,
    adversarial_dimension,
    classic_littlestone_dimension,
    dimension_of,
    full_class,
    identity_map,
    is_shattered,
    make_learner,
    optimal_mistake_bound,
    realizable_orientation_rounds,
    restrict,
    total_map,
    witness_tree,
)
from robust_online.dimension import get_engine

# 3 instances, 5 hypotheses, mixed overlap; frozen: dim 1 here,
# dim 2 under identity, dim 1 under the total map
HC5 = HypothesisClass.from_tables(
    [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 1, 1)]
)
U5 = PerturbationMap.from_sets([{0, 1}, {1}, {1, 2}])


def test_singleton_class_has_dimension_zero():
    hc = HypothesisClass.from_tables([(0, 1, 0)])
    assert adversarial_dimension(hc, total_map(3)) == 0


def test_empty_version_space_sentinel():
    hc = full_class(2)
    u = identity_map(2)
    v = restrict(restrict(VersionSpace.full(hc), 0, 0, u), 0, 1, u)
    assert v.is_empty
    assert dimension_of(v, u) == EMPTY_DIM


def test_identity_full_class_three_points():
    hc = full_class(3)
    u = identity_map(3)
    assert adversarial_dimension(hc, u) == 3
    assert classic_littlestone_dimension(hc) == 3


def test_total_map_constant_pair():
    hc = HypothesisClass.from_tables([(0, 0, 0), (1, 1, 1)])
    assert adversarial_dimension(hc, total_map(3)) == 1


def test_frozen_mixed_overlap_scenario():
    assert adversarial_dimension(HC5, U5) == 1
    assert adversarial_dimension(HC5, identity_map(3)) == 2
    assert adversarial_dimension(HC5, total_map(3)) == 1


def test_identity_specialization_matches_classic():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        count = int(rng.integers(2, 9))
        tables = {tuple(int(v) for v in rng.integers(0, 2, n)) for _ in range(count)}
        hc = HypothesisClass.from_tables(sorted(tables))
        assert adversarial_dimension(hc, identity_map(n)) == (
            classic_littlestone_dimension(hc)
        )


def test_classic_thresholds_on_seven_points():
    tables = [tuple(1 if x >= k else 0 for x in range(7)) for k in range(8)]
    hc = HypothesisClass.from_tables(tables)
    assert classic_littlestone_dimension(hc) == 3


def test_classic_full_classes():
    for n in range(1, 7):
        assert classic_littlestone_dimension(full_class(n)) == n


def test_dimension_monotone_under_restriction():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        hc = full_class(n)
        sets = [set(np.flatnonzero(rng.integers(0, 2, n))) for _ in range(n)]
        u = PerturbationMap.from_sets(sets)
        v = VersionSpace.full(hc)
        d = dimension_of(v, u)
        for _ in range(3):
            w = restrict(v, int(rng.integers(n)), int(rng.integers(2)), u)
            if w.is_empty:
                break
            d2 = dimension_of(w, u)
            assert d2 <= d
            v, d = w, d2


def test_multiclass_two_labels_agrees_with_binary():
    """The same tables over three labels, the third unused, give the
    multiclass dimension: its nodes carry every ordered pair of distinct
    labels, and those naming label 2 have an empty side.  It equals the
    binary dimension of the two-label class."""
    rng = np.random.default_rng(9)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        count = int(rng.integers(2, 7))
        tables = sorted(
            {tuple(int(v) for v in rng.integers(0, 2, n)) for _ in range(count)}
        )
        sets = [set(np.flatnonzero(rng.integers(0, 2, n))) for _ in range(n)]
        u = PerturbationMap.from_sets(sets)
        multi = HypothesisClass.from_tables(tables, label_count=3)
        assert adversarial_dimension(multi, u) == (
            adversarial_dimension(HypothesisClass.from_tables(tables), u)
        )


def test_witness_tree_empty_for_dimension_zero():
    hc = HypothesisClass.from_tables([(0, 0)])
    tree = witness_tree(hc, total_map(2))
    assert tree.root is None
    assert is_shattered(tree, hc, total_map(2))


def test_witness_tree_depth_two_classic():
    hc = full_class(2)
    u = identity_map(2)
    tree = witness_tree(hc, u)
    assert tree.depth == 2
    assert is_shattered(tree, hc, u)


def test_witness_tree_is_built_once_per_class_map_and_mode():
    hc, u = full_class(3), identity_map(3)
    tree = witness_tree(hc, u)
    assert witness_tree(hc, u) is tree
    assert is_shattered(tree, hc, u)
    # the mode is the class's own, so naming it gives the same tree
    assert witness_tree(hc, u, multiclass=False) is tree
    # another map over the same class gets its own tree
    assert witness_tree(hc, total_map(3)).depth == 1


def test_witness_trees_validate_on_random_scenarios():
    rng = np.random.default_rng(17)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        count = int(rng.integers(2, 9))
        tables = sorted(
            {tuple(int(v) for v in rng.integers(0, 2, n)) for _ in range(count)}
        )
        hc = HypothesisClass.from_tables(tables)
        sets = [set(np.flatnonzero(rng.integers(0, 2, n))) for _ in range(n)]
        u = PerturbationMap.from_sets(sets)
        tree = witness_tree(hc, u)
        assert tree.depth == adversarial_dimension(hc, u)
        assert is_shattered(tree, hc, u)


def test_dimension_bounded_by_log_class_size():
    rng = np.random.default_rng(21)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        count = int(rng.integers(2, 10))
        tables = sorted(
            {tuple(int(v) for v in rng.integers(0, 2, n)) for _ in range(count)}
        )
        hc = HypothesisClass.from_tables(tables)
        sets = [set(np.flatnonzero(rng.integers(0, 2, n))) for _ in range(n)]
        u = PerturbationMap.from_sets(sets)
        assert 2 ** adversarial_dimension(hc, u) <= hc.size


def test_branch_and_bound_keeps_the_memo_small():
    # the unpruned search stores all 3**11 subcubes (177,148 entries with
    # the empty mask); with the cuts each mask stops after its first node, so
    # only the 4,095 subcubes fixing a prefix of the instances are stored
    hc, u = full_class(11), identity_map(11)
    engine = get_engine(hc, u)
    assert engine.dimension() == 11
    assert len(engine._memo) <= 4097


# The six entry points that keep a multiclass keyword, each called with a
# claimed mode on full_class(2, label_count) under the total map.
KEPT_KEYWORDS = {
    "adversarial_dimension": lambda hc, u, mode: adversarial_dimension(hc, u, multiclass=mode),
    "dimension_of": lambda hc, u, mode: dimension_of(VersionSpace.full(hc), u, mode),
    "witness_tree": lambda hc, u, mode: witness_tree(hc, u, multiclass=mode),
    "optimal_mistake_bound": lambda hc, u, mode: optimal_mistake_bound(
        hc, u, "orientation", multiclass=mode
    ),
    "realizable_orientation_rounds": lambda hc, u, mode: [
        (q.pair, q.labels, side)
        for q, side in realizable_orientation_rounds(
            hc, u, 3, np.random.default_rng(0), multiclass=mode
        )
    ],
    "make_learner": lambda hc, u, mode: make_learner(
        "optimal", "robust", hc, u, multiclass=mode
    ).predict(0),
}

# what each returned for the mode that matches the label count, by label count
KEPT_RESULTS = {
    "adversarial_dimension": {2: 1, 3: 1},
    "dimension_of": {2: 1, 3: 1},
    "witness_tree": {
        labels: AdversarialTree(AdversarialTreeNode((0, 0), (0, 1)), 1) for labels in (2, 3)
    },
    "optimal_mistake_bound": {2: 1, 3: 1},
    "realizable_orientation_rounds": {
        2: [((0, 1), (0, 1), 0), ((0, 0), (0, 1), 0), ((0, 0), (0, 1), 0)],
        3: [((1, 0), (0, 1), 1), ((1, 0), (1, 0), 0), ((1, 1), (2, 1), 1)],
    },
    "make_learner": {2: 0, 3: 0},
}


@pytest.mark.parametrize("name", sorted(KEPT_KEYWORDS))
@pytest.mark.parametrize("labels", [2, 3])
def test_the_kept_multiclass_keyword_only_checks_the_class(name, labels):
    """None or the class's own mode gives the pinned result; the other
    mode is a DomainError naming the label count, on two labels and on
    three (where a binary table of (0, 1) queries was once built)."""
    call, u = KEPT_KEYWORDS[name], total_map(2)
    for mode in (None, labels > 2):
        assert call(full_class(2, labels), u, mode) == KEPT_RESULTS[name][labels]
    with pytest.raises(DomainError, match=f"{labels} labels"):
        call(full_class(2, labels), u, labels == 2)


def test_the_optimal_learners_take_strict_by_keyword_only():
    """An old positional (hc, u, multiclass, strict) call fails loudly."""
    hc, u = full_class(2), identity_map(2)
    for cls in (SoaOrientationLearner, RobustReductionLearner):
        with pytest.raises(TypeError):
            cls(hc, u, False)
        assert cls(hc, u, strict=False).strict is False
