"""Game runner plumbing and the command line, exercised end to end."""

import hashlib
import json
import subprocess
import sys
from dataclasses import replace
from types import SimpleNamespace

import pytest

from robust_online import (
    CorpusParams,
    LEARNER_NAMES,
    OrientationQuery,
    PerturbationMap,
    ScriptedOrientationAdversary,
    ScriptedRobustAdversary,
    adversarial_dimension,
    derive_rng,
    family_expected_mistakes,
    full_class,
    generate_corpus,
    make_learner,
    parse_scenario,
    realizable_robust_rounds,
    run_scenario,
    serialize_scenario,
    witness_tree,
)
from robust_online.adversaries import tree_adversary
from robust_online.errors import DomainError, ProtocolViolation
from robust_online.runner import (
    run_game,
    run_orientation_game,
    run_robust_game,
    transcript_to_json,
)
from robust_online.scenario import GameConfig

from reference import transcript_from_json

SCENARIO = """\
SPACES
instances: a b c
labels: neg pos
HYPOTHESES
h0: neg neg neg
h1: neg neg pos
h2: neg pos pos
h3: pos neg neg
h4: pos pos pos
PERTURBATIONS main
a: a b
b: b
c: b c
GAME
protocol: robust
truth: main
horizon: 10
seed: 2
learner: optimal
adversary: realizable
"""


@pytest.fixture
def scenario():
    return parse_scenario(SCENARIO)


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "toy.scn"
    path.write_text(SCENARIO)
    return path


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "robust_online", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_run_scenario_summary_fields(scenario):
    summary, transcript = run_scenario(scenario)
    assert summary.protocol == "robust"
    assert summary.rounds == len(transcript.rounds) == 10
    assert summary.mistakes == sum(r.loss for r in transcript.rounds)
    assert summary.dimension == adversarial_dimension(
        scenario.hypotheses, scenario.truth
    )
    # an optimal learner on a realizable script stays within the dimension
    assert summary.mistakes <= summary.dimension


def test_run_scenario_is_deterministic(scenario):
    a, ta = run_scenario(scenario)
    b, tb = run_scenario(scenario)
    assert a == b
    assert ta == tb
    assert a.to_text() == b.to_text()


TOLERANT_GAMES = (
    ("robust", "realizable"),
    ("robust", "corrupted"),
    ("robust", "tree"),
    ("orientation", "realizable"),
    ("orientation", "tree"),
)


def tolerant_game_scenarios():
    """Generated classes at 2 and 3 labels, each played by the optimal and
    the majority learner in both protocols, against the realizable, the
    corrupted and the tree adversary, at horizon 16."""
    for labels, seed in ((2, 11), (3, 12)):
        for sc in generate_corpus(CorpusParams(count=60, seed=seed, label_count=labels)):
            for protocol, adversary in TOLERANT_GAMES:
                for learner in ("optimal", "majority"):
                    game = replace(
                        sc.game, protocol=protocol, adversary=adversary, learner=learner,
                        horizon=16, corruptions=4 if adversary == "corrupted" else 0,
                    )
                    yield replace(sc, game=game)


def test_tolerant_game_outputs_are_pinned():
    """run_scenario's summary text, full event lists, dimension traces and
    transcript JSON on the generated games; the summary text shows only
    the events' count."""
    digest, runs, events = hashlib.sha256(), 0, 0
    for sc in tolerant_game_scenarios():
        try:
            summary, transcript = run_scenario(sc, track_dimension=True)
        except DomainError as err:
            digest.update(f"error: {err}\n".encode())
            continue
        runs += 1
        events += len(summary.events)
        digest.update(summary.to_text().encode())
        digest.update(repr((summary.events, summary.dimension_trace)).encode())
        digest.update(transcript_to_json(transcript).encode())
    assert (runs, events) == (1146, 919)
    assert digest.hexdigest() == (
        "e2dd23f3f61af26c9e23469d39739ef7d7dbdad1b9bd4cc3e5094cbdb550cc35"
    )


def test_run_scenario_tree_adversary_forces_dimension(scenario):
    from dataclasses import replace

    tree_sc = replace(scenario, game=replace(scenario.game, adversary="tree"))
    summary, _ = run_scenario(tree_sc)
    assert summary.mistakes == summary.dimension


def test_dimension_trace_decreases_on_mistakes(scenario):
    summary, transcript = run_scenario(scenario, track_dimension=True)
    trace = summary.dimension_trace
    assert trace is not None
    assert len(trace) == summary.rounds
    for r, (before, after) in zip(
        transcript.rounds, zip([summary.dimension] + trace, trace)
    ):
        if r.loss:
            assert after <= before


def test_transcript_json_round_trip(scenario):
    from dataclasses import replace

    for protocol in ("robust", "orientation"):
        sc = replace(scenario, game=replace(scenario.game, protocol=protocol))
        _, transcript = run_scenario(sc)
        text = transcript_to_json(transcript)
        back = transcript_from_json(text)
        assert back == transcript
        assert transcript_to_json(back) == text
        payload = json.loads(text)
        assert payload["protocol"] == protocol
        assert len(payload["rounds"]) == 10


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["rounds"][2].update(bogus=1), "round 2: unknown key 'bogus'"),
        (lambda d: d["rounds"][3].pop("loss"), "round 3: missing key 'loss'"),
        (lambda d: d.pop("rounds"), "no 'rounds' key"),
        (lambda d: d.update(protocol="chess"), "unknown protocol 'chess'"),
        (lambda d: d.update(protocol=["robust"]), r"unknown protocol \['robust'\]"),
        (lambda d: d.update(rounds={}), "rounds must be a JSON list"),
        (lambda d: d["rounds"].__setitem__(1, [1, 2]), "round 1: expected an object, got list"),
        (lambda d: "5", "must be a JSON object, got int"),
        (lambda d: json.dumps(d)[:-1], "not valid JSON"),
        (
            lambda d: d.update(
                protocol="orientation",
                rounds=[{"pair": 5, "labels": [0, 1], "prediction": 0, "side": 0, "loss": 0}],
            ),
            "round 0: 'pair' must be a list of two integers",
        ),
        (lambda d: d["rounds"][4].update(shown="a"), "round 4: 'shown' must be an integer, got str"),
        (lambda d: d.update(seed="x"), "transcript 'seed' must be an integer, got str"),
        (lambda d: d.update(seed=True), "transcript 'seed' must be an integer, got bool"),
        (lambda d: d["rounds"][0].update(loss=False), "round 0: 'loss' must be an integer, got bool"),
        (
            lambda d: d.update(
                protocol="orientation",
                rounds=[{"pair": [0, 1], "labels": [0, 1, 1], "prediction": 0, "side": 0, "loss": 0}],
            ),
            "round 0: 'labels' must be a list of two integers",
        ),
        (lambda d: d.update(learner=3), "transcript 'learner' must be a string, got int"),
        (
            lambda d: d.update(
                protocol="orientation",
                rounds=[{"pair": [0, 1], "labels": [0, 1], "prediction": 0, "side": 7, "loss": -3}],
            ),
            "round 0: 'side' must be 0 or 1, got 7",
        ),
        (
            lambda d: d.update(
                protocol="orientation",
                rounds=[{"pair": [0, 1], "labels": [0, 1], "prediction": 0, "side": 0, "loss": -3}],
            ),
            "round 0: 'loss' must be 0 for prediction 0 and revealed label 0, got -3",
        ),
        (
            lambda d: d.update(
                protocol="orientation",
                rounds=[{"pair": [0, 1], "labels": [0, 2], "prediction": 0, "side": 1, "loss": 0}],
            ),
            "round 0: 'loss' must be 1 for prediction 0 and revealed label 2, got 0",
        ),
        (
            lambda d: d["rounds"][5].update(loss=1 - d["rounds"][5]["loss"]),
            r"round 5: 'loss' must be \d for prediction \d and revealed label \d, got \d",
        ),
        (
            lambda d: d["rounds"][0].update(shown=-5, prediction=-1, clean_x=-2, clean_y=-1),
            "round 0: 'clean_x' must not be negative, got -2",
        ),
        (lambda d: d["rounds"][1].update(prediction=-1), "round 1: 'prediction' must not be negative, got -1"),
        (lambda d: d["rounds"][2].update(shown=-5), "round 2: 'shown' must not be negative, got -5"),
        (lambda d: d["rounds"][3].update(clean_y=-1), "round 3: 'clean_y' must not be negative, got -1"),
        (
            lambda d: d.update(
                protocol="orientation",
                rounds=[{"pair": [0, -1], "labels": [0, 1], "prediction": 0, "side": 0, "loss": 0}],
            ),
            r"round 0: 'pair' must not be negative, got \[0, -1\]",
        ),
        (
            lambda d: d.update(
                protocol="orientation",
                rounds=[{"pair": [0, 1], "labels": [-1, 1], "prediction": 1, "side": 1, "loss": 0}],
            ),
            r"round 0: 'labels' must not be negative, got \[-1, 1\]",
        ),
        (
            lambda d: d.update(
                protocol="orientation",
                rounds=[{"pair": [0, 1], "labels": [3, 3], "prediction": 3, "side": 0, "loss": 0}],
            ),
            r"round 0: 'labels' must be two different labels, got \[3, 3\]",
        ),
    ],
)
def test_transcript_from_json_names_the_bad_key(scenario, edit, message):
    """An edit changes the payload in place, or returns the text to parse."""
    _, transcript = run_scenario(scenario)
    payload = json.loads(transcript_to_json(transcript))
    text = edit(payload)
    with pytest.raises(DomainError, match=message):
        transcript_from_json(text if isinstance(text, str) else json.dumps(payload))


def test_transcript_from_json_takes_any_integer_seed(scenario):
    _, transcript = run_scenario(scenario)
    payload = json.loads(transcript_to_json(transcript))
    payload["seed"] = -7
    assert transcript_from_json(json.dumps(payload)).seed == -7


def test_orientation_protocol_runs(scenario):
    from dataclasses import replace

    sc = replace(scenario, game=replace(scenario.game, protocol="orientation"))
    summary, transcript = run_scenario(sc)
    assert summary.protocol == "orientation"
    assert summary.mistakes <= summary.dimension


def test_run_game_picks_the_runner_by_protocol(scenario):
    hc, u = scenario.hypotheses, scenario.truth
    tree = witness_tree(hc, u)
    for protocol, runner in (
        ("robust", run_robust_game),
        ("orientation", run_orientation_game),
    ):
        games = [
            play(
                hc, u, make_learner("optimal", protocol, hc, u),
                tree_adversary(protocol, tree, u), 5, track_dimension=True,
            )
            for play in (run_game, runner)
        ]
        assert games[0] == games[1]
        assert len(games[0][0]) == tree.depth
    learner = make_learner("optimal", "robust", hc, u)
    with pytest.raises(ValueError, match="unknown protocol 'chess'"):
        run_game(hc, u, learner, SimpleNamespace(protocol="chess"), 5)


# U(0) = {0, 1}, U(1) = {1}, U(2) = {2}: (0, 1) is compatible, (1, 2) is not
PROTOCOL_MAP = PerturbationMap.from_sets([{0, 1}, {1}, {2}])
GOOD_ROBUST = (1, 1, 0)
GOOD_QUERY = (OrientationQuery((0, 1)), 0)


@pytest.mark.parametrize(
    "scripted, second_round, message",
    [
        (ScriptedRobustAdversary, (3, 1, 0), "shown input 3 is out of range"),
        (
            ScriptedRobustAdversary,
            (0, 1, 0),
            "clean instance 1 does not perturb to shown input 0",
        ),
        (ScriptedRobustAdversary, (1, 1, 2), "revealed label 2 is out of range"),
        (
            ScriptedOrientationAdversary,
            (OrientationQuery((0, 3)), 0),
            "query pair (0, 3) out of range",
        ),
        (
            ScriptedOrientationAdversary,
            (OrientationQuery((1, 2)), 0),
            "query pair (1, 2) has disjoint perturbation sets",
        ),
        (
            ScriptedOrientationAdversary,
            (OrientationQuery((0, 1)), 2),
            "revealed side 2 is not 0 or 1",
        ),
    ],
    ids=["input-range", "input-outside-u", "label-range", "pair-range", "disjoint-pair", "side"],
)
def test_runners_reject_protocol_violations(scripted, second_round, message):
    hc, u = full_class(3), PROTOCOL_MAP
    first = GOOD_ROBUST if scripted.protocol == "robust" else GOOD_QUERY
    adversary = scripted([first, second_round])
    learner = make_learner("constant-0", scripted.protocol, hc, u)
    with pytest.raises(ProtocolViolation) as err:
        run_game(hc, u, learner, adversary, 5)
    assert str(err.value) == f"round 1: {message}"


def test_game_config_defaults():
    g = GameConfig()
    assert (g.protocol, g.horizon, g.seed) == ("robust", 10, 0)
    assert (g.learner, g.adversary, g.corruptions) == ("optimal", "realizable", 0)


def test_cli_dim(scenario_file):
    out = run_cli("dim", str(scenario_file), "--classic")
    assert out.returncode == 0
    # frozen values: the overlap map gives 1, the identity map gives 2
    assert "dimension: 1" in out.stdout
    assert "classic (identity map): 2" in out.stdout


def test_cli_dim_witness_tree(scenario_file):
    out = run_cli("dim", str(scenario_file), "--tree")
    assert out.returncode == 0
    assert "dimension: 1" in out.stdout
    # a depth-1 witness prints its single node as an instance:label pair
    assert "(" in out.stdout and ":" in out.stdout


def test_cli_play_writes_verifiable_transcript(scenario_file, tmp_path):
    transcript_path = tmp_path / "run.json"
    out = run_cli(
        "play", str(scenario_file), "--transcript", str(transcript_path)
    )
    assert out.returncode == 0
    assert "mistakes:" in out.stdout
    saved = transcript_from_json(transcript_path.read_text())
    assert len(saved.rounds) == 10


def test_cli_play_deterministic(scenario_file):
    a = run_cli("play", str(scenario_file))
    b = run_cli("play", str(scenario_file))
    assert a.stdout == b.stdout


def test_cli_oracle_agrees_with_dimension(scenario_file):
    out = run_cli("oracle", str(scenario_file))
    assert out.returncode == 0
    assert "dimension: 1" in out.stdout
    assert "robust value: 1" in out.stdout
    assert "orientation value: 1" in out.stdout


def test_cli_adversary_all_learners(scenario_file):
    out = run_cli("adversary", str(scenario_file))
    assert out.returncode == 0
    assert "optimal" in out.stdout
    out = run_cli("adversary", str(scenario_file), "--learner", "majority")
    assert out.returncode == 0


def test_cli_adversary_orientation_protocol(tmp_path):
    path = tmp_path / "orient.scn"
    path.write_text(SCENARIO.replace("protocol: robust", "protocol: orientation"))
    sc = parse_scenario(path.read_text())
    dim = adversarial_dimension(sc.hypotheses, sc.truth)
    assert sc.game.protocol == "orientation" and dim >= 1
    for learner in LEARNER_NAMES:
        out = run_cli("adversary", str(path), "--learner", learner)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines()[0] == f"dimension: {dim}"
        forced = int(out.stdout.splitlines()[1].rsplit(" ", 1)[1])
        assert forced == dim if learner == "optimal" else forced >= dim


def test_cli_agnostic(scenario_file):
    out = run_cli("agnostic", str(scenario_file), "--corruptions", "1")
    assert out.returncode == 0
    assert "expected regret" in out.stdout


def test_cli_agnostic_trace_has_one_probability_per_round(scenario_file, tmp_path):
    trace = tmp_path / "trace.txt"
    out = run_cli("agnostic", str(scenario_file), "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    assert f"trace written: {trace}" in out.stdout
    lines = trace.read_text().splitlines()
    assert [int(line.split()[0]) for line in lines] == list(range(10))
    assert all(0.0 <= float(line.split()[1]) <= 1.0 for line in lines)


def test_cli_agnostic_dimension_zero_has_no_ratio(tmp_path):
    out = run_cli("gen-corpus", "--count", "3", "--seed", "4", "--out", str(tmp_path))
    assert out.returncode == 0, out.stderr
    out = run_cli("agnostic", str(tmp_path / "scenario_0001.txt"))
    assert "Traceback" not in out.stderr
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[:2] == ["dimension: 0", "experts: 1"]
    assert "bound: 0.0000" in lines
    assert lines[-1] == "ratio: n/a"


def test_cli_agnostic_long_horizon_has_no_pool_cap(tmp_path):
    out = run_cli("gen-corpus", "--count", "12", "--seed", "0", "--out", str(tmp_path))
    assert out.returncode == 0, out.stderr
    out = run_cli("agnostic", str(tmp_path / "scenario_0008.txt"), "--horizon", "1024")
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[:2] == ["dimension: 2", "experts: 524801"]


@pytest.fixture
def family_file(tmp_path):
    path = tmp_path / "family.scn"
    path.write_text(SCENARIO.replace("GAME", "PERTURBATIONS alt\na: a\nb: b\nc: c\nGAME"))
    return path


def test_cli_uncertain(family_file):
    for method in ("ewa", "halving"):
        out = run_cli("uncertain", str(family_file), "--method", method)
        assert out.returncode == 0, out.stderr
        assert "mistakes" in out.stdout


def test_cli_uncertain_ewa_seed_fixes_only_the_sequence(family_file):
    """--seed draws the sequence; the printed value is the exact expected
    mistakes on it, so no coin of the forecaster depends on the seed."""
    sc = parse_scenario(family_file.read_text())
    family = sc.family()
    for seed in (0, 3):
        out = run_cli("uncertain", str(family_file), "--method", "ewa", "--seed", str(seed))
        assert out.returncode == 0, out.stderr
        rng = derive_rng(seed, "uncertain-cli")
        rounds = realizable_robust_rounds(sc.hypotheses, family.truth, sc.game.horizon, rng)
        exact = family_expected_mistakes(sc.hypotheses, family, rounds)
        lines = out.stdout.splitlines()
        assert lines[:2] == ["family size: 2", f"loss budget: {exact['budget']}"]
        assert lines[2] == f"expected mistakes: {exact['expected']:.4f}"
        assert lines[3:5] == [
            f"bound: {exact['bound']:.4f}",
            f"ratio: {exact['expected'] / exact['bound']:.4f}",
        ]
        assert lines[5:] == ["realizable: true"]


def test_cli_gen_corpus_round_trips(tmp_path):
    out_dir = tmp_path / "corpus"
    out = run_cli(
        "gen-corpus", "--count", "4", "--seed", "9", "--out", str(out_dir)
    )
    assert out.returncode == 0, out.stderr
    files = sorted(out_dir.glob("scenario_*.txt"))
    assert len(files) == 4
    for f in files:
        sc = parse_scenario(f.read_text())
        assert serialize_scenario(sc) == f.read_text()


@pytest.mark.parametrize(
    "extra, named",
    [
        (("--labels", "3"), "--labels"),
        (("--strata", "random"), "--strata"),
        (("--labels", "2", "--strata", "total"), "--labels and --strata"),
    ],
)
def test_cli_gen_corpus_family_rejects_corpus_options(tmp_path, extra, named):
    out_dir = tmp_path / "family"
    out = run_cli("gen-corpus", "--family", *extra, "--out", str(out_dir))
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    last = out.stderr.strip().splitlines()[-1]
    assert last == f"robust-online: error: gen-corpus --family takes no {named}"
    assert not out_dir.exists()


def test_cli_reports_scenario_errors_with_positions(tmp_path):
    path = tmp_path / "bad.scn"
    path.write_text(SCENARIO.replace("truth: main", "truth: ghost"))
    out = run_cli("dim", str(path))
    assert out.returncode != 0
    assert "line" in out.stderr


def test_cli_check_smoke_is_byte_stable():
    a = run_cli("check", "--scale", "smoke", "--criteria", "2", "--seed", "3")
    b = run_cli("check", "--scale", "smoke", "--criteria", "2", "--seed", "3")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    assert "criterion  2" in a.stdout


# six instances: one more than the exhaustive oracle accepts
BIG_SCENARIO = """\
SPACES
instances: a b c d e f
labels: neg pos
HYPOTHESES
h0: neg neg neg neg neg neg
h1: pos neg neg neg neg neg
PERTURBATIONS main
a: a
b: b
c: c
d: d
e: e
f: f
"""


@pytest.mark.parametrize(
    "args, message",
    [
        (("check", "--criteria", "5-"), "malformed criteria selection '5-'"),
        (("check", "--criteria", "13"), "unknown criteria [13]"),
        (("adversary", "{scn}", "--learner", "bogus"), "invalid choice: 'bogus'"),
        (("play", "{scn}", "--horizon", "0"), "--horizon: must be at least 1, got 0"),
        (("play", "{scn}", "--horizon", "-3"), "--horizon: must be at least 1, got -3"),
        (("check", "--criteria", "5-3"), "reversed criteria range '5-3'"),
        (("agnostic", "{scn}", "--seeds", "1"), "unrecognized arguments: --seeds 1"),
        (("agnostic", "{scn}", "--horizon", "-1"), "--horizon: must be at least 1"),
        (("oracle", "{scn}", "--horizon", "-2"), "--horizon: must be at least 0"),
        (("oracle", "{big}"), "exhaustive game search is limited to 5 instances"),
        (("gen-corpus", "--labels", "1", "--out", "{out}"), "--labels: must be at least 2"),
        (("gen-corpus", "--labels", "0", "--out", "{out}"), "--labels: must be at least 2"),
        (("gen-corpus", "--count", "0", "--out", "{out}"), "--count: must be at least 1"),
        (("play", "{missing}/s.txt"), "robust-online play: [Errno 2] No such file or directory"),
        (("play", "{dir}"), "robust-online play: [Errno 21] Is a directory"),
        (
            ("play", "{scn}", "--transcript", "{missing}/x.json"),
            "robust-online play: [Errno 2] No such file or directory",
        ),
        (
            ("agnostic", "{scn}", "--trace", "{missing}/t.txt"),
            "robust-online agnostic: [Errno 2] No such file or directory",
        ),
        (("gen-corpus", "--out", "{scn}"), "robust-online gen-corpus: [Errno 17] File exists"),
        (("dim", "{raw}"), "invalid scenario {raw}: 'utf-8' codec can't decode byte 0xff"),
        (
            ("uncertain", "{scn}", "--method", "ewa", "--family", "{raw}"),
            "invalid scenario {raw}: 'utf-8' codec can't decode byte 0xff",
        ),
        (("check", "--criteria", ","), "the criteria selection names no criterion"),
        (("check", "--criteria", "1-1000000000"), "unknown criteria [1000000000]"),
        (
            ("play", "{scn}", "--horizon", "99999999999999999999"),
            "--horizon: must be at most 1048576, got 99999999999999999999",
        ),
        (("play", "{scn}", "--horizon", "1048577"), "--horizon: must be at most 1048576"),
        (
            ("agnostic", "{scn}", "--horizon", "99999999999999999999"),
            "--horizon: must be at most 1048576",
        ),
        (
            ("uncertain", "{scn}", "--method", "ewa", "--horizon", "99999999999999999999"),
            "--horizon: must be at most 1048576",
        ),
        (("play", "{long}"), "horizon must be at most 1048576"),
        (("agnostic", "{long}"), "horizon must be at most 1048576"),
        # integers past int()'s 4,300-digit limit are refused by their length
        (("play", "{scn}", "--seed", "9" * 5000), "--seed: must have at most 4000 digits"),
        (
            ("play", "{scn}", "--horizon", "9" * 5000),
            "--horizon: must be at most 1048576, got 99999999999999999999... (5000 characters)",
        ),
        (("oracle", "{scn}", "--horizon", "-" + "9" * 5000), "--horizon: must be at least 0"),
        (
            ("check", "--seed", "x" * 5000),
            "--seed: expected an integer, got 'xxxxxxxxxxxxxxxxxxxx... (5000 characters)'",
        ),
        (("play", "{longseed}"), "seed must have at most 4000 digits"),
        (
            ("play", "{scn}", "--seed", "9" * 5000 + "_"),
            "--seed: expected an integer, got '99999999999999999999... (5001 characters)'",
        ),
        (("adversary", "{scn}", "--tie-break", "high"), "unrecognized arguments: --tie-break high"),
    ],
)
def test_cli_rejects_bad_input_without_traceback(tmp_path, args, message):
    paths = {
        "scn": tmp_path / "toy.scn",
        "big": tmp_path / "big.scn",
        "out": tmp_path / "corpus",
        "missing": tmp_path / "missing",
        "dir": tmp_path,
        "raw": tmp_path / "raw.scn",
        "long": tmp_path / "long.scn",
        "longseed": tmp_path / "longseed.scn",
    }
    paths["scn"].write_text(SCENARIO)
    paths["long"].write_text(SCENARIO.replace("horizon: 10", "horizon: 99999999999999999999"))
    paths["longseed"].write_text(SCENARIO.replace("seed: 2", "seed: " + "9" * 5000))
    paths["big"].write_text(BIG_SCENARIO)
    paths["raw"].write_bytes(b"\xff\xfe\x00bad")
    out = run_cli(*(a.format(**paths) for a in args))
    assert out.returncode != 0
    assert "Traceback" not in out.stderr
    last = out.stderr.strip().splitlines()[-1]
    assert message.format(**paths) in last
    assert len(last) < 300


def test_cli_accepts_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.scn"
    path.write_text(
        "\ufeffSPACES\ninstances: a b\nHYPOTHESES\nh0: 0 1\nh1: 1 1\n"
        "PERTURBATIONS main\na: a\nb: b\n",
        encoding="utf-8",
    )
    out = run_cli("dim", str(path))
    assert out.returncode == 0, out.stderr
    assert out.stdout == "dimension: 1\n"


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """Two `gen-corpus` scenarios (dimensions 2 and 3) and one family scenario."""
    root = tmp_path_factory.mktemp("generated")
    for extra, name in (((), "corpus"), (("--family",), "family")):
        out = run_cli("gen-corpus", "--count", "3", "--seed", "1", *extra, "--out", root / name)
        assert out.returncode == 0, out.stderr
    return root


@pytest.mark.parametrize("command", ["agnostic", "uncertain"])
def test_cli_binary_only_commands_refuse_multiclass_up_front(tmp_path, command):
    out = run_cli(
        "gen-corpus", "--count", "4", "--labels", "3", "--seed", "1", "--out", tmp_path / "mc"
    )
    assert out.returncode == 0, out.stderr
    scenario = str(tmp_path / "mc" / "scenario_0000.txt")
    extra = ("--method", "ewa") if command == "uncertain" else ()
    out = run_cli(command, scenario, *extra)
    assert (out.returncode, out.stdout) == (1, "")
    assert "binary labels" in out.stderr
    assert "Traceback" not in out.stderr


AGNOSTIC_PINNED = {
    "scenario_0000.txt": (
        "dimension: 2\nexperts: 56\ncomparator loss: 2\n"
        "expected regret: 0.8191\nbound: 6.4863\nratio: 0.1263\n",
        "0 0.000000\n1 0.821429\n2 0.915227\n3 0.611503\n4 0.186686\n"
        "5 0.032678\n6 0.936464\n7 0.983688\n8 0.998121\n9 0.000272\n",
    ),
    "scenario_0002.txt": (
        "dimension: 3\nexperts: 176\ncomparator loss: 2\n"
        "expected regret: 0.9451\nbound: 8.0845\nratio: 0.1169\n",
        "".join(f"{t} 0.000000\n" for t in range(8)) + "8 0.261364\n9 0.683731\n",
    ),
}


@pytest.mark.parametrize("name", sorted(AGNOSTIC_PINNED))
def test_cli_agnostic_output_is_pinned(generated, tmp_path, name):
    """The exact expected regret and the per-round probabilities."""
    stdout, trace_text = AGNOSTIC_PINNED[name]
    trace = tmp_path / "trace.txt"
    out = run_cli(
        "agnostic", str(generated / "corpus" / name),
        "--corruptions", "2", "--trace", str(trace),
    )
    assert (out.returncode, out.stdout) == (0, stdout + f"trace written: {trace}\n")
    assert trace.read_text() == trace_text


def ewa_text(size, expected, bound, ratio):
    return (
        f"family size: {size}\nloss budget: 1\nexpected mistakes: {expected}\n"
        f"bound: {bound}\nratio: {ratio}\nrealizable: true\n"
    )


EWA_PINNED = {
    "scenario_0000.txt": ewa_text(2, "1.1554", "2.8706", "0.4025"),
    "scenario_0001.txt": ewa_text(4, "0.0000", "4.0514", "0.0000"),
    "scenario_0002.txt": ewa_text(8, "0.5619", "5.1188", "0.1098"),
}


@pytest.mark.parametrize("name", sorted(EWA_PINNED))
def test_cli_uncertain_ewa_output_is_pinned(generated, name):
    """The exact expected mistakes of the three generated family scenarios."""
    out = run_cli("uncertain", str(generated / "family" / name), "--method", "ewa")
    assert (out.returncode, out.stdout) == (0, EWA_PINNED[name])



def halving_text(size, mistakes, phases, bound):
    return (
        f"family size: {size}\nmistakes: {mistakes}\nphase mistakes: {phases}\n"
        f"completed phases: {len(phases) - 1}\nbound: {bound}\n"
    )


@pytest.mark.parametrize(
    "args, stdout",
    [
        (("scenario_0000.txt",), halving_text(2, 1, [1], 3)),
        (("scenario_0001.txt",), halving_text(4, 0, [0], 5)),
        (("scenario_0002.txt",), halving_text(8, 0, [0], 7)),
        (("scenario_0001.txt", "--seed", "2", "--horizon", "60"), halving_text(4, 2, [1, 1], 5)),
        (("scenario_0001.txt", "--seed", "4", "--horizon", "60"), halving_text(4, 1, [1, 0], 5)),
        (("scenario_0002.txt", "--seed", "3", "--horizon", "60"), halving_text(8, 1, [1], 7)),
    ],
)
def test_cli_uncertain_halving_output_is_pinned(generated, args, stdout):
    """Default runs of the three generated family scenarios, and longer
    runs at seeds whose phases complete or whose vote errs."""
    name, *extra = args
    scenario = generated / "family" / name
    out = run_cli("uncertain", str(scenario), "--method", "halving", *extra)
    assert (out.returncode, out.stdout) == (0, stdout)
