"""Scenario text format and deterministic corpus generation."""

import pytest

from robust_online import (
    CorpusParams,
    adversarial_dimension,
    generate_corpus,
    generate_family_scenarios,
    parse_scenario,
    serialize_scenario,
    try_parse_scenario,
)
from robust_online.errors import DomainError, ScenarioFormatError
from robust_online.scenario import STRATA

GOOD = """\
# toy scenario
SPACES
instances: a b c
labels: neg pos
HYPOTHESES
h0: neg neg pos
h1: pos neg pos
PERTURBATIONS main
a: a b
b: -
c: c
GAME
protocol: robust
truth: main
horizon: 8
seed: 3
learner: optimal
adversary: realizable
"""


def test_parse_well_formed_scenario():
    sc = parse_scenario(GOOD)
    assert sc.instance_names == ("a", "b", "c")
    assert sc.label_names == ("neg", "pos")
    assert sc.hypothesis_names == ("h0", "h1")
    assert sc.hypotheses.size == 2
    assert sc.hypotheses[0].table == (0, 0, 1)
    assert sc.hypotheses[1].table == (1, 0, 1)
    assert sc.truth_name == "main"
    assert sc.truth.forward == (frozenset({0, 1}), frozenset(), frozenset({2}))
    assert sc.game.protocol == "robust"
    assert sc.game.horizon == 8
    assert sc.game.seed == 3
    assert not sc.multiclass


def test_round_trip_is_identity():
    sc = parse_scenario(GOOD)
    assert parse_scenario(serialize_scenario(sc)) == sc


def test_unknown_label_reports_position():
    bad = GOOD.replace("h0: neg neg pos", "h0: neg whoops pos")
    sc, errors = try_parse_scenario(bad)
    assert sc is None
    assert any("whoops" in e.message for e in errors)
    bad_lines = [e.line for e in errors]
    assert 6 in bad_lines  # the h0 row of the input above


def test_parser_collects_multiple_errors():
    bad = GOOD.replace("h0: neg neg pos", "h0: neg neg").replace(
        "a: a b", "a: a zz"
    )
    sc, errors = try_parse_scenario(bad)
    assert sc is None
    assert len(errors) >= 2


def test_bad_row_does_not_shadow_its_instance():
    # a malformed perturbation row must not also be reported missing
    bad = GOOD.replace("a: a b", "a: a zz")
    _, errors = try_parse_scenario(bad)
    assert not any("no row" in e.message.lower() for e in errors)


def test_parse_scenario_raises_with_all_positions():
    bad = GOOD.replace("truth: main", "truth: ghost")
    with pytest.raises(ScenarioFormatError) as exc:
        parse_scenario(bad)
    assert "ghost" in str(exc.value)
    assert exc.value.errors


def test_duplicate_names_rejected():
    bad = GOOD.replace("h1: pos neg pos", "h0: pos neg pos")
    _, errors = try_parse_scenario(bad)
    assert any("duplicate" in e.message.lower() for e in errors)


def test_multiple_perturbation_sections_form_a_family():
    text = GOOD.replace(
        "GAME",
        "PERTURBATIONS alt\na: a\nb: b\nc: c\nGAME",
    )
    sc = parse_scenario(text)
    assert sc.perturbation_names == ("main", "alt")
    fam = sc.family()
    assert len(fam) == 2
    assert fam.truth_index == 0


def test_corpus_is_deterministic_and_respects_limits():
    params = CorpusParams(count=24, seed=5)
    first = generate_corpus(params)
    second = generate_corpus(params)
    assert [serialize_scenario(a) for a in first] == [
        serialize_scenario(b) for b in second
    ]
    assert len(first) == 24
    for sc in first:
        n = len(sc.instance_names)
        assert 2 <= n <= 5
        assert 2 <= sc.hypotheses.size <= 16
        assert len(sc.label_names) == 2


def test_corpus_covers_all_strata():
    scenarios = generate_corpus(CorpusParams(count=24, seed=1))
    # strata rotate round-robin and are recorded in the scenario name list
    identity_count = sum(
        1
        for sc in scenarios
        if all(sc.truth.forward[x] == frozenset({x}) for x in range(len(sc.instance_names)))
    )
    assert identity_count >= 24 // len(STRATA)


def test_corpus_scenarios_parse_back():
    for sc in generate_corpus(CorpusParams(count=12, seed=2)):
        assert parse_scenario(serialize_scenario(sc)) == sc


@pytest.mark.parametrize("labels", [1, 0, -1])
def test_corpus_needs_two_labels(labels):
    with pytest.raises(DomainError, match="at least two labels"):
        generate_corpus(CorpusParams(count=1, label_count=labels))


def test_corpus_different_seeds_differ():
    a = generate_corpus(CorpusParams(count=12, seed=0))
    b = generate_corpus(CorpusParams(count=12, seed=1))
    assert [serialize_scenario(s) for s in a] != [serialize_scenario(s) for s in b]


def test_family_scenarios_have_usable_truth():
    scenarios = generate_family_scenarios(9, seed=3)
    assert len(scenarios) == 9
    sizes = sorted({len(sc.perturbations) for sc in scenarios})
    assert sizes == [2, 4, 8]
    for sc in scenarios:
        assert adversarial_dimension(sc.hypotheses, sc.truth) >= 1
        assert any(sc.truth.forward)
        assert parse_scenario(serialize_scenario(sc)) == sc


def test_family_scenarios_deterministic():
    a = generate_family_scenarios(6, seed=4)
    b = generate_family_scenarios(6, seed=4)
    assert [serialize_scenario(x) for x in a] == [serialize_scenario(x) for x in b]
