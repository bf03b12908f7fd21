"""Tests of the benchmark itself: tiny sizes, determinism, tracing, contract.

Run from the repository root with `python3 -m pytest bench/tests -q`.
"""

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import robust_online  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "solve": workloads.SolveSize(
        desk=60, multiclass_every=4, full_instances=5, big=1, big_instances=8, big_hypotheses=32
    ),
    "play": workloads.PlaySize(
        binary=3,
        multiclass=2,
        sequences=3,
        big_robust=2,
        big_orientation=2,
        big_instances=8,
        big_hypotheses=32,
    ),
    # 600 probes per horizon keep the slope check clear of sampling noise
    "replay": workloads.ReplaySize(regret_sets=1, family=3, probes=600),
}


def _tiny_run(name, seed, tracer=None):
    wl, _, items, prepared, _, _ = run.setup(name, seed, size=TINY[name])
    return run.execute(wl, items, prepared, seed, tracer)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_passes_every_check(name):
    out = _tiny_run(name, 5)
    assert out["attempted"] >= 10
    assert out["failed"] == 0


@pytest.mark.parametrize("name", sorted(TINY))
def test_same_seed_same_outputs_traced_or_not(name):
    first = _tiny_run(name, 9)
    second = _tiny_run(name, 9)
    tracer = tracing.Tracer()
    traced = _tiny_run(name, 9, tracer)
    for key in ("attempted", "failed", "output_digest", "counts", "items_by_kind"):
        assert first[key] == second[key] == traced[key], key
    assert tracer.stats.get("runner.game", [0])[0] == first["counts"].get("runner.games", 0)
    # stages the package runs inside an estimate get spans of their own
    regret = first["items_by_kind"].get("regret", 0)
    assert tracer.stats.get("agnostic.build", [0])[0] == regret
    assert not tracer.missing
    # the wrappers are gone again once the traced section ends
    assert not hasattr(robust_online.learners.RobustReductionLearner.predict, "__wrapped__")


def test_other_seed_other_outputs():
    assert _tiny_run("play", 1)["output_digest"] != _tiny_run("play", 2)["output_digest"]


def test_vanished_entry_point_is_reported_missing(monkeypatch):
    monkeypatch.delattr(robust_online.learners.SoaOrientationLearner, "side_dimensions")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    metrics, missing = tracer.layer_metrics()
    assert "dimension.lookup_s" in missing and "dimension.lookup_s" not in metrics
    assert "scenario.parse_s" in metrics


def test_driver_uses_only_public_names():
    tree = ast.parse((BENCH / "workloads.py").read_text())
    used = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "ro"
    }
    assert used and used <= set(robust_online.__all__), used - set(robust_online.__all__)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert per_layer == set(tracing.LAYER_METRICS) | {
        "trace.overhead_frac",
        "trace.unattributed_s",
        "acceptance.criterion_3_s",
        "acceptance.criterion_8_s",
        "acceptance.criterion_11_s",
        "acceptance.criterion_12_s",
        "acceptance.total_s",
    }
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    record, _ = run.measure("play", 3, 1)
    assert {m["name"] for m in spec["end_to_end"]} == set(record["metrics"])


def test_cli_prints_result_last(tmp_path):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "play", "--seed", "4",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    record, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1000
    assert record["record"]["machine"]["cpu_count"] >= 1


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "solve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
