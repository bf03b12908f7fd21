"""Scenario text format and deterministic corpus generation."""

import hashlib
import json
from pathlib import Path

import pytest

from robust_online import (
    CorpusParams,
    adversarial_dimension,
    full_class,
    generate_corpus,
    generate_family_scenarios,
    parse_scenario,
    serialize_scenario,
    try_parse_scenario,
)
from robust_online.errors import DomainError, ScenarioFormatError
from robust_online.scenario import MAX_DIGITS, STRATA

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
    assert sc.hypotheses.tables == ((0, 0, 1), (1, 0, 1))
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


SMALL = """\
SPACES
instances: a b
HYPOTHESES
h0: 0 1
h1: 1 1
PERTURBATIONS main
a: a b
b: b
"""


def _edit(old, new):
    assert old in SMALL
    return SMALL.replace(old, new, 1)


# one input per message the parser can report, with the whole error list
@pytest.mark.parametrize(
    "text, expected",
    [
        pytest.param(
            _edit("PERTURBATIONS main", "PERTURBATIONS 9main"),
            ["line 6, column 15: bad perturbation name '9main'"],
            id="bad-perturbation-name",
        ),
        pytest.param(
            _edit("HYPOTHESES", "HYPOTHESES extra"),
            ["line 3, column 12: section HYPOTHESES takes no argument"],
            id="section-argument",
        ),
        pytest.param(
            _edit("h1: 1 1", "h1 1 1"),
            ["line 5, column 1: expected 'key: values', got 'h1 1 1'"],
            id="not-key-value",
        ),
        pytest.param(
            "note: draft\n" + SMALL,
            ["line 1, column 1: entry 'note' appears before any section header"],
            id="entry-before-header",
        ),
        pytest.param(
            SMALL.split("PERTURBATIONS")[0],
            ["line 5, column 1: missing PERTURBATIONS section"],
            id="missing-section",
        ),
        pytest.param(
            SMALL + "SPACES\ninstances: a b\n",
            ["line 9, column 1: duplicate SPACES section"],
            id="duplicate-section",
        ),
        pytest.param(
            _edit("instances: a b", "instances: a b\n  colors: red"),
            ["line 3, column 3: unknown SPACES entry 'colors'"],
            id="unknown-spaces-entry",
        ),
        pytest.param(
            _edit("instances: a b", "instances: a 2b"),
            [
                "line 2, column 1: bad instances name '2b'",
                "line 1, column 1: SPACES must declare instances",
                "line 7, column 1: unknown instance 'a'",
                "line 8, column 1: unknown instance 'b'",
            ],
            id="bad-space-name",
        ),
        pytest.param(
            _edit("instances: a b", "instances: a b\nlabels: p p"),
            ["line 3, column 1: duplicate labels name 'p'"],
            id="duplicate-space-name",
        ),
        pytest.param(
            _edit("instances: a b", "instances: a b\nlabels: p"),
            ["line 3, column 1: need at least two labels"],
            id="one-label",
        ),
        pytest.param(
            _edit("instances: a b\n", ""),
            [
                "line 1, column 1: SPACES must declare instances",
                "line 6, column 1: unknown instance 'a'",
                "line 7, column 1: unknown instance 'b'",
            ],
            id="no-instances",
        ),
        pytest.param(
            _edit("h1: 1 1", "2h: 1 1"),
            ["line 5, column 1: bad hypothesis name '2h'"],
            id="bad-hypothesis-name",
        ),
        pytest.param(
            _edit("h1: 1 1", "h0: 1 1"),
            ["line 5, column 1: duplicate hypothesis name 'h0'"],
            id="duplicate-hypothesis-name",
        ),
        pytest.param(
            _edit("h1: 1 1", "h1: 1"),
            ["line 5, column 1: hypothesis 'h1' has 1 labels for 2 instances"],
            id="row-width",
        ),
        pytest.param(
            _edit("h1: 1 1", "h1: 1 2"),
            ["line 5, column 1: hypothesis 'h1' uses unknown label '2'"],
            id="unknown-label",
        ),
        pytest.param(
            _edit("h0: 0 1\nh1: 1 1\n", ""),
            ["line 3, column 1: HYPOTHESES must declare at least one hypothesis"],
            id="no-hypotheses",
        ),
        pytest.param(
            _edit("h1: 1 1", "h1: 0 1"),
            ["line 3, column 1: hypothesis 'h1' duplicates another row's table"],
            id="duplicate-table",
        ),
        pytest.param(
            SMALL + "PERTURBATIONS main\na: a\nb: b\n",
            ["line 9, column 1: duplicate perturbation section 'main'"],
            id="duplicate-perturbation-section",
        ),
        pytest.param(
            SMALL + "c: a\n",
            ["line 9, column 1: unknown instance 'c'"],
            id="unknown-instance",
        ),
        pytest.param(
            SMALL + "a: b\n",
            ["line 9, column 1: instance 'a' listed twice"],
            id="instance-twice",
        ),
        pytest.param(
            _edit("b: b", "b: b c"),
            ["line 8, column 1: out-of-range target 'c' in U(b)"],
            id="out-of-range-target",
        ),
        pytest.param(
            _edit("b: b\n", ""),
            ["line 6, column 1: section 'main' has no row for instance 'b'"],
            id="missing-row",
        ),
        pytest.param(
            SMALL + "GAME\nprotocol: bogus\n",
            [
                "line 10, column 1: unknown protocol 'bogus'; "
                "choose from ('robust', 'orientation')"
            ],
            id="unknown-protocol",
        ),
        pytest.param(
            SMALL + "GAME\ntruth: ghost\n",
            ["line 10, column 1: truth 'ghost' names no PERTURBATIONS section"],
            id="unknown-truth",
        ),
        pytest.param(
            SMALL + "GAME\nseed: 1.5\n",
            ["line 10, column 1: seed must be an integer, got '1.5'"],
            id="non-integer",
        ),
        pytest.param(
            SMALL + "GAME\nhorizon: 0\n",
            ["line 10, column 1: horizon must be positive"],
            id="horizon-zero",
        ),
        pytest.param(
            SMALL + "GAME\nhorizon: 99999999999999999999\n",
            ["line 10, column 1: horizon must be at most 1048576"],
            id="horizon-too-long",
        ),
        pytest.param(
            SMALL + "GAME\ncorruptions: -1\n",
            ["line 10, column 1: corruptions must be nonnegative"],
            id="negative-corruptions",
        ),
        pytest.param(
            SMALL + "GAME\nlearner: bogus\n",
            [
                "line 10, column 1: unknown learner 'bogus'; choose from "
                "('optimal', 'constant-0', 'constant-1', 'random', 'majority')"
            ],
            id="unknown-learner",
        ),
        pytest.param(
            SMALL + "GAME\nadversary: bogus\n",
            [
                "line 10, column 1: unknown adversary 'bogus'; "
                "choose from ('realizable', 'tree', 'corrupted')"
            ],
            id="unknown-adversary",
        ),
        pytest.param(
            SMALL + "GAME\ncolor: red\n",
            ["line 10, column 1: unknown GAME entry 'color'"],
            id="unknown-game-entry",
        ),
        # integers past int()'s 4,300-digit limit are refused by their length
        pytest.param(
            SMALL + "GAME\nseed: " + "9" * 5000 + "\n",
            ["line 10, column 1: seed must have at most 4000 digits"],
            id="seed-too-long",
        ),
        pytest.param(
            SMALL + "GAME\nhorizon: " + "9" * 5000 + "\n",
            ["line 10, column 1: horizon must be at most 1048576"],
            id="horizon-past-the-digit-limit",
        ),
        pytest.param(
            SMALL + "GAME\ncorruptions: " + "9" * 5000 + "\n",
            ["line 10, column 1: corruptions must have at most 4000 digits"],
            id="corruptions-too-long",
        ),
        pytest.param(
            SMALL + "GAME\ncorruptions: -" + "9" * 5000 + "\n",
            ["line 10, column 1: corruptions must be nonnegative"],
            id="negative-corruptions-too-long",
        ),
        pytest.param(
            SMALL + "GAME\nseed: 1" + "x" * 5000 + "\n",
            [
                "line 10, column 1: seed must be an integer, "
                "got '1xxxxxxxxxxxxxxxxxxx... (5001 characters)'"
            ],
            id="long-non-integer",
        ),
        pytest.param(
            SMALL + "GAME\nseed: _" + "9" * 5000 + "\n",
            [
                "line 10, column 1: seed must be an integer, "
                "got '_9999999999999999999... (5001 characters)'"
            ],
            id="long-malformed-integer",
        ),
        # every quoted value, line, key or name is cut to its first 20 characters
        pytest.param(
            SMALL + "GAME\nprotocol: " + "x" * 5000 + "\n",
            [
                "line 10, column 1: unknown protocol 'xxxxxxxxxxxxxxxxxxxx... (5000 characters)'; "
                "choose from ('robust', 'orientation')"
            ],
            id="long-protocol",
        ),
        pytest.param(
            SMALL + "GAME\n" + "x" * 5000 + "\n",
            [
                "line 10, column 1: expected 'key: values', "
                "got 'xxxxxxxxxxxxxxxxxxxx... (5000 characters)'"
            ],
            id="long-line-without-colon",
        ),
        pytest.param(
            _edit("instances: a b", "instances: a b " + "\u00e9" * 5000),
            [
                "line 2, column 1: bad instances name '" + "\u00e9" * 20 + "... (5000 characters)'",
                "line 1, column 1: SPACES must declare instances",
                "line 7, column 1: unknown instance 'a'",
                "line 8, column 1: unknown instance 'b'",
            ],
            id="long-non-ascii-instance-name",
        ),
    ],
)
def test_parser_messages(text, expected):
    assert parse_scenario(SMALL).hypotheses.size == 2
    sc, errors = try_parse_scenario(text)
    assert sc is None
    assert [str(e) for e in errors] == expected


def test_an_integer_of_max_digits_is_read():
    seed = "-" + "9" * MAX_DIGITS
    sc = parse_scenario(SMALL + f"GAME\nseed: {seed}\ncorruptions: +1_000\n")
    assert sc.game.seed == int(seed)
    assert sc.game.corruptions == 1000


def test_repeated_table_in_a_large_class_is_named():
    # full_class(11) with the last of its 2,048 rows repeating the first
    n = 11
    rows = [f"h{h.id}: " + " ".join(f"y{y}" for y in h.table) for h in full_class(n)]
    rows[-1] = rows[-1].split(":")[0] + ":" + rows[0].split(":")[1]
    text = "\n".join(
        ["SPACES", "instances: " + " ".join(f"x{i}" for i in range(n)), "labels: y0 y1"]
        + ["HYPOTHESES"]
        + rows
        + ["PERTURBATIONS main"]
        + [f"x{i}: x{i}" for i in range(n)]
    )
    sc, errors = try_parse_scenario(text)
    assert sc is None
    assert [str(e) for e in errors] == [
        "line 4, column 1: hypothesis 'h2047' duplicates another row's table"
    ]


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


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"strata": ()}, "strata must be some of"),
        ({"strata": ("identity", "bogus"), "count": 1}, "strata must be some of"),
        ({"strata": ("random",) * 3 + ("Identity",)}, "strata must be some of"),
        ({"count": -1}, "count must be nonnegative"),
    ],
)
def test_corpus_params_refuse_what_no_corpus_can_be_drawn_for(fields, message):
    # refused when the parameters are made, before any draw: an empty strata
    # tuple used to divide by zero, an unknown stratum to pass unnoticed until
    # a scenario of it came up, and a negative count to give no scenarios
    with pytest.raises(DomainError, match=message):
        CorpusParams(**fields)


def test_corpus_params_take_any_nonempty_choice_of_strata():
    assert generate_corpus(CorpusParams(count=0)) == []
    for strata in (("random",), ("total", "identity", "total")):
        assert len(generate_corpus(CorpusParams(count=3, strata=strata))) == 3


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


def _tables_and_sets(corpus):
    """Every label table and every perturbation set the corpus holds."""
    tables = [t for sc in corpus for t in sc.hypotheses.tables]
    sets = [s for sc in corpus for u in sc.perturbations for s in u.forward]
    return tables, sets


def test_one_generator_call_shares_its_fixed_maps_and_names():
    scenarios = generate_corpus(CorpusParams(count=80, seed=6))
    for stratum in ("identity", "total"):
        maps = {}
        for i, sc in enumerate(scenarios):
            if STRATA[i % len(STRATA)] == stratum:
                assert maps.setdefault(len(sc.instance_names), sc.truth) is sc.truth
        assert len(maps) >= 2
    for corpus in (scenarios, generate_family_scenarios(9, seed=3)):
        shared = {}
        for sc in corpus:
            for attr in ("instance_names", "label_names", "hypothesis_names"):
                names = getattr(sc, attr)
                assert shared.setdefault((attr, len(names)), names) is names
        assert len(shared) < 3 * len(corpus)
        # equal tables and equal sets are one object each
        for values in _tables_and_sets(corpus):
            first = {}
            for value in values:
                assert first.setdefault(value, value) is value
            assert len(first) < len(values)
    # nothing outlives the call
    again = generate_corpus(CorpusParams(count=80, seed=6))
    assert again[0].instance_names == scenarios[0].instance_names
    assert again[0].instance_names is not scenarios[0].instance_names
    for old, new in zip(_tables_and_sets(scenarios), _tables_and_sets(again)):
        assert old == new
        # an interpreter may keep one empty frozenset for every caller
        assert all(a is not b for a, b in zip(old, new) if a)


# SHA-256 over the serialized scenarios of whole corpora, recorded from a
# generator that drew one row of hypothesis table, and one coin of a
# disjoint map, per rng call
CORPUS_DIGESTS = json.loads(
    (Path(__file__).parent / "data" / "corpus_digests.json").read_text()
)


def _corpus_id(entry):
    if entry["generator"] == "family":
        return f"family-seed{entry['seed']}"
    strata = "all" if tuple(entry["strata"]) == STRATA else "+".join(entry["strata"])
    return f"corpus-labels{entry['labels']}-seed{entry['seed']}-{strata}"


@pytest.mark.parametrize("entry", CORPUS_DIGESTS, ids=_corpus_id)
def test_generated_corpora_match_the_pinned_digests(entry):
    if entry["generator"] == "family":
        scenarios = generate_family_scenarios(entry["count"], seed=entry["seed"])
    else:
        params = CorpusParams(
            count=entry["count"],
            seed=entry["seed"],
            label_count=entry["labels"],
            strata=tuple(entry["strata"]),
        )
        scenarios = generate_corpus(params)
    digest = hashlib.sha256()
    for sc in scenarios:
        digest.update(serialize_scenario(sc).encode())
    assert digest.hexdigest() == entry["sha256"]
