"""perf/ab.py, the paired in-process A/B harness, run A/A.

HEAD's src/ against the working tree's: the two packages give the same
output on every item, so the harness exits 0 and every time ratio is a
finite positive number.  No timing band is asserted; this host's noise
is not the harness's to pin.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _has_head():
    if shutil.which("git") is None:
        return False
    done = subprocess.run(["git", "rev-parse", "--verify", "HEAD"], cwd=ROOT, capture_output=True)
    return done.returncode == 0


@pytest.mark.skipif(not _has_head(), reason="needs git and a committed HEAD")
def test_an_a_a_pass_on_replay_gives_equal_outputs_and_finite_ratios():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perf" / "ab.py"), "--parent", "HEAD",
         "--workload", "replay", "--seconds", "1", "--passes", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    record = json.loads(done.stdout)
    assert record["outputs_equal"] is True and record["differing_items"] == 0
    assert record["output_digest"]["parent"] == record["output_digest"]["change"]
    assert record["items"] == sum(record["items_by_kind"].values())
    (one_pass,) = record["passes"]
    assert set(one_pass["ratio"]) == set(record["items_by_kind"]) | {"total"}
    for side in ("parent_s", "change_s"):
        assert all(math.isfinite(s) and s > 0 for s in one_pass[side].values())
    assert all(math.isfinite(r) and r > 0 for r in one_pass["ratio"].values())
