"""Game runner plumbing and the command line, exercised end to end."""

import json
import subprocess
import sys
from types import SimpleNamespace

import pytest

from robust_online import (
    LEARNER_NAMES,
    adversarial_dimension,
    make_learner,
    parse_scenario,
    run_scenario,
    serialize_scenario,
    witness_tree,
)
from robust_online.adversaries import tree_adversary
from robust_online.errors import DomainError
from robust_online.runner import (
    recount_transcript,
    replay_matches,
    run_game,
    run_orientation_game,
    run_robust_game,
    transcript_from_json,
    transcript_to_json,
)
from robust_online.scenario import GameConfig

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
    _, transcript = run_scenario(scenario)
    text = transcript_to_json(transcript)
    back = transcript_from_json(text)
    assert back == transcript
    payload = json.loads(text)
    assert payload["protocol"] == "robust"


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["rounds"][2].update(bogus=1), "round 2: unknown key 'bogus'"),
        (lambda d: d["rounds"][3].pop("loss"), "round 3: missing key 'loss'"),
        (lambda d: d.pop("rounds"), "no 'rounds' key"),
    ],
)
def test_transcript_from_json_names_the_bad_key(scenario, edit, message):
    _, transcript = run_scenario(scenario)
    payload = json.loads(transcript_to_json(transcript))
    edit(payload)
    with pytest.raises(DomainError, match=message):
        transcript_from_json(json.dumps(payload))


def test_replay_matches_detects_tampering(scenario):
    summary, transcript = run_scenario(scenario)
    assert replay_matches(summary, transcript)
    rounds, mistakes = recount_transcript(transcript)
    assert (rounds, mistakes) == (summary.rounds, summary.mistakes)
    first = transcript.rounds[0]
    transcript.rounds[0] = type(first)(
        shown=first.shown,
        prediction=first.prediction,
        clean_x=first.clean_x,
        clean_y=first.clean_y,
        loss=1 - first.loss,
    )
    assert not replay_matches(summary, transcript)


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
    out = run_cli(
        "agnostic", str(scenario_file), "--seeds", "5", "--corruptions", "1"
    )
    assert out.returncode == 0
    assert "mean regret" in out.stdout


def test_cli_agnostic_trace_has_one_probability_per_round(scenario_file, tmp_path):
    trace = tmp_path / "trace.txt"
    out = run_cli("agnostic", str(scenario_file), "--seeds", "3", "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    assert f"trace written: {trace}" in out.stdout
    lines = trace.read_text().splitlines()
    assert [int(line.split()[0]) for line in lines] == list(range(10))
    assert all(0.0 <= float(line.split()[1]) <= 1.0 for line in lines)


def test_cli_agnostic_dimension_zero_has_no_ratio(tmp_path):
    out = run_cli("gen-corpus", "--count", "3", "--seed", "4", "--out", str(tmp_path))
    assert out.returncode == 0, out.stderr
    out = run_cli("agnostic", str(tmp_path / "scenario_0001.txt"), "--seeds", "20")
    assert "Traceback" not in out.stderr
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[:2] == ["dimension: 0", "experts: 1"]
    assert "bound: 0.0000" in lines
    assert lines[-1] == "ratio: n/a"


@pytest.fixture
def family_file(tmp_path):
    path = tmp_path / "family.scn"
    path.write_text(SCENARIO.replace("GAME", "PERTURBATIONS alt\na: a\nb: b\nc: c\nGAME"))
    return path


def test_cli_uncertain(family_file):
    for method in ("ewa", "halving"):
        out = run_cli("uncertain", str(family_file), "--method", method, "--seeds", "3")
        assert out.returncode == 0, out.stderr
        assert "mistakes" in out.stdout


def test_cli_uncertain_ewa_single_seed(family_file):
    out = run_cli("uncertain", str(family_file), "--method", "ewa", "--seeds", "1")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == "family size: 2"
    assert lines[1].startswith("loss budget: ")
    mistakes = int(lines[2].removeprefix("mistakes: "))
    assert 0 <= mistakes <= 10
    assert lines[3:] == ["realizable: true"]


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
        (("dim", "{scn}", "--depth-cap", "-1"), "--depth-cap: must be at least 0"),
        (("agnostic", "{scn}", "--seeds", "0"), "--seeds: must be at least 1, got 0"),
        (("agnostic", "{scn}", "--horizon", "-1"), "--horizon: must be at least 1"),
        (("oracle", "{scn}", "--horizon", "-2"), "--horizon: must be at least 0"),
        (("oracle", "{big}"), "exhaustive game search is limited to 5 instances"),
        (("gen-corpus", "--labels", "1", "--out", "{out}"), "--labels: must be at least 2"),
        (("gen-corpus", "--labels", "0", "--out", "{out}"), "--labels: must be at least 2"),
        (("gen-corpus", "--count", "0", "--out", "{out}"), "--count: must be at least 1"),
    ],
)
def test_cli_rejects_bad_input_without_traceback(tmp_path, args, message):
    paths = {
        "scn": tmp_path / "toy.scn",
        "big": tmp_path / "big.scn",
        "out": tmp_path / "corpus",
    }
    paths["scn"].write_text(SCENARIO)
    paths["big"].write_text(BIG_SCENARIO)
    out = run_cli(*(a.format(**paths) for a in args))
    assert out.returncode != 0
    assert "Traceback" not in out.stderr
    assert message in out.stderr.strip().splitlines()[-1]
