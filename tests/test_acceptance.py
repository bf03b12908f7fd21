"""Full-scale acceptance gate, one test per criterion.

Each test runs its criterion at the full scale with the default seed and
asserts the recorded verdict, so `pytest -v` shows one pass/fail line per
criterion and the failure message carries the criterion's own detail
string.

Criterion 9 checks phased halving against the bound it has.  With
f = floor(log2 |G|) and d the true member's dimension, a completed phase
costs at most f + 1 mistakes, since the mistake that empties the alive
set comes on top of the f that halve it; the open phase costs at most f;
each completed phase spends one of the true expert's at most d mistakes;
so the total is at most d * (f + 1) + f.  A cap of ceil(log2 |G|) per
phase cannot hold when |G| is a power of two: an adversary that splits
the alive set evenly and labels against the vote forces f + 1.  The
pinned counterexamples live in test_uncertain.py.

The full-scale and smoke-scale result lines are pinned, so a refactor
that claims to keep every output has its claim checked; a change that
moves a line on purpose updates the pin and says so.  The smoke lines are
literals; the full-scale lines of criteria 1-11 are read from the recorded
`check` stdout in tests/data, which CI diffs at seed 1 the same way.
"""

import subprocess
from pathlib import Path

import pytest

from robust_online import acceptance
from robust_online.acceptance import CRITERIA, FULL, SMOKE

DATA = Path(__file__).parent / "data"

SMOKE_LINES_SEED_0 = [
    "criterion  1: PASS  dimension matches both exact game values (scenarios=24 mismatches=0)",
    "criterion  2: PASS  identity maps agree with the classic dimension (scenarios=12 mismatches=0)",
    "criterion  3: PASS  optimal learners' worst case is exactly the dimension (games=12 worst_total=20 violations=0)",
    "criterion  4: PASS  tree adversaries force the dimension (scenarios=12 runs=120 exact_failures=0 baseline_failures=0)",
    "criterion  5: PASS  every orientation mistake shrinks the dimension (games=6 mistake_edges=297 violations=0)",
    "criterion  6: PASS  subset expert within dimension plus comparator (sequences=10 violations=0)",
    "criterion  7: PASS  forecaster regret within the horizon bound (combos=4 worst_excess=-4.4320)",
    "criterion  8: PASS  aggregated learner within the agnostic regret bound (scenarios=3 failures=0 worst_ratio=0.7739)",
    "criterion  9: PASS  phased halving within its mistake bounds (scenarios=12 total_violations=0 phase_violations=0 charge_violations=0)",
    "criterion 10: PASS  family forecaster within the loss-budget bound (scenarios=3 failures=0 worst_ratio=0.5632)",
    "criterion 11: PASS  random-label regret square-root trend (horizons=[64, 256, 1024] slope=0.5115)",
]

# `check --scale full --seed 0 --criteria 1-11` stdout: the eleven criterion
# lines, then the footer; criterion 12 runs check itself, so it is not in it
FULL_LINES_SEED_0 = (DATA / "check_full_seed0.txt").read_text().splitlines()[:11] + [
    "criterion 12: PASS  check output is byte-reproducible (bytes=1213 identical=true)",
]


def run(number: int):
    result = CRITERIA[number](FULL, seed=0)
    assert result.passed, result.line()
    assert result.line() == FULL_LINES_SEED_0[number - 1]
    return result


def test_criterion_01_dimension_equals_both_minimax_values():
    run(1)


def test_criterion_02_identity_map_matches_classic_dimension():
    run(2)


def test_criterion_03_optimal_learners_never_exceed_dimension():
    run(3)


def test_criterion_04_tree_adversary_tightness():
    run(4)


def test_criterion_05_version_space_dimension_drops_on_mistakes():
    run(5)


def test_criterion_06_decomposition_inequality():
    run(6)


def test_criterion_07_forecaster_regret_bound():
    run(7)


def test_criterion_08_agnostic_regret_end_to_end():
    run(8)


def test_criterion_09_phased_halving_bounds():
    run(9)


def test_criterion_10_family_ewa_bound():
    run(10)


def test_criterion_11_random_label_scaling_slope():
    run(11)


def test_criterion_12_check_output_reproducibility():
    run(12)


SMOKE_STDOUT_SEED_0 = "".join(f"{line}\n" for line in SMOKE_LINES_SEED_0).encode()


@pytest.mark.parametrize(
    "returncode, stdout, passed",
    [
        (0, SMOKE_STDOUT_SEED_0 + b"passed 11 of 11 criteria at scale smoke\n", True),
        (1, b"", False),
        (0, SMOKE_STDOUT_SEED_0, False),
        (0, SMOKE_STDOUT_SEED_0[:100], False),
    ],
)
def test_criterion_12_requires_both_children_to_complete(monkeypatch, returncode, stdout, passed):
    def fake_run(cmd, **kwargs):
        return subprocess.CompletedProcess(cmd, returncode, stdout=stdout, stderr=b"")

    monkeypatch.setattr(acceptance.subprocess, "run", fake_run)
    result = CRITERIA[12](SMOKE, 0)
    assert result.passed is passed
    # both runs read as identical; only an incomplete pair says so
    suffix = "" if passed else " completed=false"
    assert result.detail == f"bytes={len(stdout)} identical=true{suffix}"


def test_smoke_lines_are_pinned():
    assert [CRITERIA[n](SMOKE, 0).line() for n in range(1, 12)] == SMOKE_LINES_SEED_0
