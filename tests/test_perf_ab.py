"""perf/ab.py, the paired in-process A/B harness, run against HEAD.

HEAD's src/ against the working tree's: the two packages give the same
output on every item, so the harness exits 0, every time ratio is a
finite positive number inside its bootstrap interval, and each kind's
median over the two passes lies inside its interval over passes.  When the working
tree's src/ is HEAD's, the pass is A/A: the same code allocates the same
objects, so the two sides' retained bytes per module agree.  No timing
band is asserted; the host's noise is not the harness's to pin.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)


def _has_head():
    return shutil.which("git") is not None and _git("rev-parse", "--verify", "HEAD").returncode == 0


def _src_is_head():
    done = _git("status", "--porcelain", "--", "src")
    return done.returncode == 0 and done.stdout == ""


pytestmark = pytest.mark.skipif(not _has_head(), reason="needs git and a committed HEAD")


@pytest.fixture(scope="module")
def replay_record():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perf" / "ab.py"), "--parent", "HEAD",
         "--workload", "replay", "--seconds", "1", "--passes", "2"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout)


def test_an_a_a_pass_on_replay_gives_equal_outputs_and_finite_ratios(replay_record):
    record = replay_record
    assert record["outputs_equal"] is True and record["differing_items"] == 0
    assert record["output_digest"]["parent"] == record["output_digest"]["change"]
    assert record["items"] == sum(record["items_by_kind"].values())
    kinds = set(record["items_by_kind"]) | {"total"}
    assert len(record["passes"]) == 2
    for one_pass in record["passes"]:
        assert set(one_pass["ratio"]) == kinds
        for side in ("parent_s", "change_s"):
            assert all(math.isfinite(s) and s > 0 for s in one_pass[side].values())
        assert all(math.isfinite(r) and r > 0 for r in one_pass["ratio"].values())
        counts = dict(one_pass["items"])
        assert counts.pop("total") == record["items"]
        assert counts == record["items_by_kind"]
        assert set(one_pass["interval"]) == set(one_pass["ratio"])
        for kind, (lo, hi) in one_pass["interval"].items():
            assert lo <= one_pass["ratio"][kind] <= hi
        # each side's generate and prepare are timed once per pass
        setup = one_pass["setup"]
        for key in ("parent_s", "change_s", "ratio"):
            assert set(setup[key]) == {"generate", "prepare"}
            assert all(math.isfinite(s) and s > 0 for s in setup[key].values())


def test_the_median_over_passes_lies_in_its_interval(replay_record):
    over = replay_record["over_passes"]
    assert set(over) == set(replay_record["items_by_kind"]) | {"total"}
    for kind, summary in over.items():
        ratios = sorted(p["ratio"][kind] for p in replay_record["passes"])
        lo, hi = summary["interval"]
        assert summary["passes"] == 2
        assert summary["median"] == pytest.approx((ratios[0] + ratios[1]) / 2)
        assert lo <= summary["median"] <= hi
        # two passes: the resampled medians run from one pass ratio to the other
        assert (lo, hi) == pytest.approx(tuple(ratios))


@pytest.mark.skipif(not _src_is_head(), reason="the working tree's src/ differs from HEAD's")
def test_an_a_a_pass_retains_the_same_bytes_per_module(replay_record):
    # within 1% of the side's total: a module that keeps a few dozen
    # bytes may differ by one small object
    held = replay_record["retained_bytes"]
    assert set(held["parent"]) == set(held["change"])
    total = held["parent"]["total"]
    assert total > 0 and abs(held["change"]["total"] - total) <= 0.01 * total
    for module, size in held["parent"].items():
        assert abs(held["change"][module] - size) <= 0.01 * total, module
