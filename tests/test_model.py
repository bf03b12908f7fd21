"""Core model: adversarial loss, version spaces, compatible pairs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_online import (
    Hypothesis,
    HypothesisClass,
    PerturbationMap,
    VersionSpace,
    adversarial_dimension,
    full_class,
    identity_map,
    parse_scenario,
    restrict,
    total_map,
)
from robust_online.errors import DomainError

from reference import adversarial_loss, compatible_pairs, empty_map, is_realizable_sequence


def two_point_overlap():
    # X={a,b} with U(a)={a,b}, U(b)={b}
    return PerturbationMap.from_sets([{0, 1}, {1}])


def test_loss_constant_zero_hypothesis_never_pays():
    hc = HypothesisClass.from_tables([(0, 0)])
    u = two_point_overlap()
    for x in range(2):
        assert adversarial_loss(list(hc)[0], x, 0, u) == 0


def test_loss_witness_perturbation_pays():
    hc = HypothesisClass.from_tables([(0, 1)])
    u = two_point_overlap()
    # h(b)=1 and b is an allowed perturbation of a, so (a, y=0) loses
    assert adversarial_loss(list(hc)[0], 0, 0, u) == 1


def test_loss_enumerates_whole_perturbation_set():
    hc = HypothesisClass.from_tables([(0, 1)])
    u = two_point_overlap()
    assert adversarial_loss(list(hc)[0], 0, 0, u) == 1
    assert adversarial_loss(list(hc)[0], 0, 1, u) == 1
    assert adversarial_loss(list(hc)[0], 1, 1, u) == 0


def test_loss_empty_perturbation_set_is_free():
    hc = HypothesisClass.from_tables([(0, 1)])
    u = empty_map(2)
    for x in range(2):
        for y in range(2):
            assert adversarial_loss(list(hc)[0], x, y, u) == 0


def test_from_tables_rejects_duplicate_tables():
    with pytest.raises(DomainError, match=r"hypothesis table \(0, 1\) appears more than once"):
        HypothesisClass.from_tables([(0, 1), (1, 1), (0, 1)])


def test_restrict_empty_set_keeps_version_space():
    hc = full_class(2)
    u = empty_map(2)
    v = VersionSpace.full(hc)
    assert restrict(v, 0, 1, u).mask == v.mask


def test_restrict_singleton_domain():
    hc = full_class(1)
    u = identity_map(1)
    v = restrict(VersionSpace.full(hc), 0, 1, u)
    assert [h.table for h in hc if v.mask >> h.id & 1] == [(1,)]


def test_restrict_requires_agreement_on_whole_set():
    # {h1:(0,1), h2:(1,1)} over U(a)={a,b}; reveal (a,1) keeps only h2
    hc = HypothesisClass.from_tables([(0, 1), (1, 1)])
    u = two_point_overlap()
    v = restrict(VersionSpace.full(hc), 0, 1, u)
    assert [h.table for h in hc if v.mask >> h.id & 1] == [(1, 1)]


def test_restrict_is_monotone_and_idempotent():
    rng = np.random.default_rng(7)
    for _ in range(60):
        n = int(rng.integers(2, 5))
        hc = full_class(n)
        sets = [set(np.flatnonzero(rng.integers(0, 2, n))) for _ in range(n)]
        u = PerturbationMap.from_sets(sets)
        v = VersionSpace.full(hc)
        for _ in range(4):
            x = int(rng.integers(n))
            y = int(rng.integers(2))
            w = restrict(v, x, y, u)
            assert w.mask & ~v.mask == 0
            assert restrict(w, x, y, u).mask == w.mask
            v = w


@pytest.mark.parametrize("x", [-1, 3])
def test_restrict_rejects_out_of_range_instance(x):
    hc = full_class(3)
    with pytest.raises(DomainError, match=f"instance id {x} outside"):
        restrict(VersionSpace.full(hc), x, 0, identity_map(3))


def test_compatible_pairs_fixed_case():
    u = two_point_overlap()
    assert compatible_pairs(u) == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_compatible_pairs_empty_map_has_none():
    assert compatible_pairs(empty_map(3)) == set()


def test_compatible_pairs_symmetric_and_reflexive_on_nonempty():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        sets = [set(np.flatnonzero(rng.integers(0, 2, n))) for _ in range(n)]
        u = PerturbationMap.from_sets(sets)
        pairs = compatible_pairs(u)
        for a, b in pairs:
            assert (b, a) in pairs
        for x in range(n):
            if sets[x]:
                assert (x, x) in pairs


def test_realizable_empty_sequence():
    assert is_realizable_sequence([], full_class(2), total_map(2))


def test_realizable_contradictory_labels_fail_everywhere():
    u = identity_map(2)
    seq = [(0, 0), (0, 1)]
    for tables in ([(0, 0)], [(0, 1), (1, 0)], None):
        hc = full_class(2) if tables is None else HypothesisClass.from_tables(tables)
        assert not is_realizable_sequence(seq, hc, u)


def test_realizable_constant_class():
    hc = HypothesisClass.from_tables([(0, 0)])
    assert is_realizable_sequence([(1, 0)], hc, total_map(2))


def test_perturbation_map_rejects_out_of_range_targets():
    with pytest.raises(DomainError):
        PerturbationMap.from_sets([{0, 5}, {1}])


def test_equal_perturbation_maps_hash_equal():
    a = PerturbationMap.from_sets([{0, 1}, {1}, set()])
    b = PerturbationMap.from_sets([[1, 0], (1,), []])
    assert a is not b and a == b
    assert hash(a) == hash(b)
    assert {a: "value"}[b] == "value"
    assert a != PerturbationMap.from_sets([{0, 1}, {1}, {2}])
    # the cached hash is neither compared nor shown
    assert "_hash" not in repr(a)


@st.composite
def map_sets(draw):
    """(n, n instance sets over range(n), empty sets included)."""
    n = draw(st.integers(1, 6))
    sets = draw(st.lists(st.frozensets(st.integers(0, n - 1)), min_size=n, max_size=n))
    return n, sets


@settings(max_examples=100, deadline=None, database=None)
@given(map_sets(), st.data())
def test_a_map_is_defined_by_its_forward_sets(case, data):
    n, sets = case
    a = PerturbationMap.from_sets(sets)
    b = PerturbationMap.from_sets([sorted(s) for s in sets])
    assert a == b and hash(a) == hash(b)
    # one frozenset object per distinct set
    for x in range(n):
        assert a.forward[x] is a.forward[a.forward.index(a.forward[x])]
    # an out-of-range target fails at construction, not on the first read
    bad = data.draw(st.integers(n, n + 3) | st.integers(-3, -1))
    x = data.draw(st.integers(0, n - 1))
    with pytest.raises(DomainError, match=f"U\\({x}\\) contains out-of-range instance"):
        PerturbationMap.from_sets(sets[:x] + [sets[x] | {bad}] + sets[x + 1 :])


def test_total_map_holds_one_set():
    u = total_map(4)
    assert u.forward[0] is u.forward[3]


def test_hypothesis_is_slotted():
    h = list(full_class(2))[1]
    assert Hypothesis.__slots__ == ("id", "table", "label_count")
    assert not hasattr(h, "__dict__")


def _held_objects(hc):
    """Everything hc's fields reach through tuples, lists, dicts and sets."""
    stack, seen = list(vars(hc).values()), []
    while stack:
        obj = stack.pop()
        seen.append(obj)
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (tuple, list, set, frozenset)):
            stack.extend(obj)
    return seen


def test_a_parsed_class_holds_its_tables_and_no_hypothesis_objects():
    sc = parse_scenario(
        "SPACES\ninstances: a b\nHYPOTHESES\nh0: 0 1\nh1: 1 1\nPERTURBATIONS main\na: a b\nb: b\n"
    )
    hc = sc.hypotheses
    assert hc.tables == ((0, 1), (1, 1))
    # Hypothesis objects are made on demand, and none is kept
    assert list(hc) == [Hypothesis(0, (0, 1), 2), Hypothesis(1, (1, 1), 2)]
    adversarial_dimension(hc, sc.truth)
    assert not any(isinstance(obj, Hypothesis) for obj in _held_objects(hc))


def test_a_class_of_one_label_makes_no_game():
    hc, u = HypothesisClass.from_tables([(0, 0)], label_count=1), total_map(2)
    assert not hc.is_binary
    # the consistency masks refuse it, so every game structure does
    with pytest.raises(DomainError, match="at least two labels, got 1"):
        adversarial_dimension(hc, u)
    with pytest.raises(DomainError, match="at least two labels, got 1"):
        restrict(VersionSpace.full(hc), 0, 0, u)


def test_full_class_size():
    assert full_class(3).size == 8
    assert full_class(2, label_count=3).size == 9


def test_total_and_identity_maps():
    assert total_map(3).forward[0] == frozenset({0, 1, 2})
    assert identity_map(3).forward[2] == frozenset({2})
