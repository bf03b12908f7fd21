"""Acceptance suite: the checks the package promises to satisfy.

Each criterion is a pure function of a scale configuration and a seed, so
two runs with the same arguments print byte-identical result lines.  The
"full" scale is authoritative; "smoke" exists for quick iteration and for
the reproducibility criterion, which compares two subprocess runs.

Wall-clock never appears in result lines.  Where a criterion carries a
runtime budget, the elapsed time feeds the verdict but not the text.
"""

import itertools
import math
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .adversaries import (
    ScriptedOrientationAdversary,
    ScriptedRobustAdversary,
    corrupt_labels,
    orientation_options,
    realizable_orientation_rounds,
    realizable_robust_rounds,
    robust_anchors,
    tree_adversary,
)
from .agnostic import decomposition_gap, mc_regret, random_label_regret_sample
from .dimension import adversarial_dimension, classic_littlestone_dimension, witness_tree
from .errors import ProtocolViolation, SearchInvariantError
from .forecaster import (
    horizon_regret_bound,
    horizon_rate,
    seeded_mistakes,
    weight_trajectory,
)
from .learners import LEARNER_NAMES, OPTIMAL, make_learner
from .model import full_class, total_map
from .oracle import optimal_mistake_bound
from .runner import run_game
from .scenario import CorpusParams, generate_corpus, generate_family_scenarios
from .seeding import derive_rng
from .uncertain import family_halving_run, halving_bound, mc_family_mistakes


@dataclass(frozen=True)
class Scale:
    name: str
    corpus_count: int
    classic_count: int
    conform_binary: int
    conform_multiclass: int
    conform_sequences: int
    conform_horizon: int
    tree_scenarios: int
    decomp_scenarios: int
    ewa_sizes: tuple[int, ...]
    ewa_horizons: tuple[int, ...]
    ewa_seeds: int
    agnostic_scenarios: int
    agnostic_horizon: int
    agnostic_seeds: int
    halving_scenarios: int
    halving_horizon: int
    family_scenarios: int
    family_seeds: int
    family_horizon: int
    trend_seeds: int


FULL = Scale(
    name="full",
    corpus_count=200,
    classic_count=100,
    conform_binary=24,
    conform_multiclass=8,
    conform_sequences=1000,
    conform_horizon=10,
    tree_scenarios=120,
    decomp_scenarios=50,
    ewa_sizes=(4, 8, 16),
    ewa_horizons=(256, 1024),
    ewa_seeds=100,
    agnostic_scenarios=10,
    agnostic_horizon=12,
    agnostic_seeds=200,
    halving_scenarios=102,
    halving_horizon=20,
    family_scenarios=9,
    family_seeds=100,
    family_horizon=12,
    trend_seeds=2000,
)

SMOKE = Scale(
    name="smoke",
    corpus_count=24,
    classic_count=12,
    conform_binary=4,
    conform_multiclass=2,
    conform_sequences=40,
    conform_horizon=8,
    tree_scenarios=12,
    decomp_scenarios=10,
    ewa_sizes=(4, 8),
    ewa_horizons=(64, 256),
    ewa_seeds=20,
    agnostic_scenarios=3,
    agnostic_horizon=10,
    agnostic_seeds=50,
    halving_scenarios=12,
    halving_horizon=12,
    family_scenarios=3,
    family_seeds=30,
    family_horizon=10,
    trend_seeds=600,
)

SCALES = {"full": FULL, "smoke": SMOKE}

# criterion 11's horizons, the same at every scale
TREND_HORIZONS = (64, 256, 1024)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number:2d}: {verdict}  {self.name} ({self.detail})"


def _sub_seed(seed: int, criterion: int) -> int:
    return seed * 1000 + criterion


def _robust_usable(hc, u) -> bool:
    return any(robust_anchors(hc, u, h) for h in hc)


def criterion_1(scale: Scale, seed: int) -> CriterionResult:
    """Dimension equals the exact minimax value of both games."""
    corpus = generate_corpus(
        CorpusParams(count=scale.corpus_count, seed=_sub_seed(seed, 1))
    )
    start = time.monotonic()
    mismatches = 0
    for sc in corpus:
        hc, u = sc.hypotheses, sc.truth
        dim = adversarial_dimension(hc, u)
        robust = optimal_mistake_bound(hc, u, game="robust")
        orient = optimal_mistake_bound(hc, u, game="orientation")
        if not dim == robust == orient:
            mismatches += 1
    elapsed = time.monotonic() - start
    return CriterionResult(
        1,
        "dimension matches both exact game values",
        mismatches == 0 and elapsed <= 600.0,
        f"scenarios={len(corpus)} mismatches={mismatches}",
    )


def criterion_2(scale: Scale, seed: int) -> CriterionResult:
    """Identity perturbations reduce to the classic dimension."""
    corpus = generate_corpus(
        CorpusParams(
            count=scale.classic_count, seed=_sub_seed(seed, 2), strata=("identity",)
        )
    )
    mismatches = 0
    for sc in corpus:
        hc, u = sc.hypotheses, sc.truth
        if adversarial_dimension(hc, u) != classic_littlestone_dimension(hc):
            mismatches += 1
    return CriterionResult(
        2,
        "identity maps agree with the classic dimension",
        mismatches == 0,
        f"scenarios={len(corpus)} mismatches={mismatches}",
    )


@lru_cache(maxsize=4)
def _conformance_sweep(scale: Scale, seed: int):
    """Shared by criteria 3 and 5: play the optimal learners on realizable
    sequences through run_game, collecting mistake-bound violations and,
    from the orientation games' dimension traces, dimension-monotonicity
    violations in one pass."""
    stats = {
        "games": 0,
        "bound_violations": 0,
        "monotone_violations": 0,
        "skipped_scenarios": 0,
    }
    specs = [
        (scale.conform_binary, 2, False),
        (scale.conform_multiclass, 3, True),
    ]
    for count, labels, multiclass in specs:
        corpus = generate_corpus(
            CorpusParams(
                count=count,
                seed=_sub_seed(seed, 3) + labels,
                label_count=labels,
            )
        )
        for idx, sc in enumerate(corpus):
            hc, u = sc.hypotheses, sc.truth
            dim = adversarial_dimension(hc, u, multiclass=multiclass)
            robust_ok = _robust_usable(hc, u)
            orient_ok = any(orientation_options(hc, u, h, multiclass) for h in hc)
            if not robust_ok and not orient_ok:
                stats["skipped_scenarios"] += 1
                continue
            horizon = scale.conform_horizon
            for s in range(scale.conform_sequences):
                rng = derive_rng(seed, "conform", labels, idx, s)
                adversaries = []
                if robust_ok:
                    rounds = realizable_robust_rounds(hc, u, horizon, rng)
                    adversaries.append(ScriptedRobustAdversary(rounds))
                if orient_ok:
                    rounds = realizable_orientation_rounds(
                        hc, u, horizon, rng, multiclass=multiclass
                    )
                    adversaries.append(ScriptedOrientationAdversary(rounds))
                for adversary in adversaries:
                    game = adversary.protocol
                    learner = make_learner(OPTIMAL, game, hc, u, multiclass=multiclass)
                    stats["games"] += 1
                    try:
                        played, trace = run_game(
                            hc, u, learner, adversary, horizon,
                            track_dimension=game == "orientation",
                        )
                    except (ProtocolViolation, SearchInvariantError):
                        stats["bound_violations"] += 1
                        continue
                    if sum(r.loss for r in played) > dim:
                        stats["bound_violations"] += 1
                    if trace is not None:
                        # round t starts at dimension ([dim] + trace)[t]
                        for r, before, after in zip(played, [dim] + trace, trace):
                            if r.loss and not after < before:
                                stats["monotone_violations"] += 1
    return stats


def criterion_3(scale: Scale, seed: int) -> CriterionResult:
    stats = _conformance_sweep(scale, seed)
    return CriterionResult(
        3,
        "optimal learners never exceed the dimension",
        stats["bound_violations"] == 0 and stats["games"] > 0,
        f"games={stats['games']} violations={stats['bound_violations']} "
        f"skipped={stats['skipped_scenarios']}",
    )


def criterion_5(scale: Scale, seed: int) -> CriterionResult:
    stats = _conformance_sweep(scale, seed)
    return CriterionResult(
        5,
        "every orientation mistake shrinks the dimension",
        stats["monotone_violations"] == 0 and stats["games"] > 0,
        f"games={stats['games']} violations={stats['monotone_violations']}",
    )


def criterion_4(scale: Scale, seed: int) -> CriterionResult:
    """Tree adversaries force exactly the dimension from the optimal
    learners and at least the dimension from every baseline."""
    corpus = generate_corpus(
        CorpusParams(count=scale.tree_scenarios, seed=_sub_seed(seed, 4))
    )
    exact_failures = 0
    baseline_failures = 0
    runs = 0
    for idx, sc in enumerate(corpus):
        hc, u = sc.hypotheses, sc.truth
        dim = adversarial_dimension(hc, u)
        tree = witness_tree(hc, u)
        for name in LEARNER_NAMES:
            for game in ("orientation", "robust"):
                rng = derive_rng(seed, "crit4", idx, name, game)
                learner = make_learner(name, game, hc, u, rng=rng, strict=name == OPTIMAL)
                played, _ = run_game(hc, u, learner, tree_adversary(game, tree, u), dim)
                forced = sum(r.loss for r in played)
                if name == OPTIMAL:
                    exact_failures += forced != dim
                else:
                    baseline_failures += forced < dim
                runs += 1
    return CriterionResult(
        4,
        "tree adversaries force the dimension",
        exact_failures == 0 and baseline_failures == 0,
        f"scenarios={len(corpus)} runs={runs} exact_failures={exact_failures} "
        f"baseline_failures={baseline_failures}",
    )


def criterion_6(scale: Scale, seed: int) -> CriterionResult:
    """Subset expert mistakes stay within dimension plus comparator loss."""
    corpus = generate_corpus(
        CorpusParams(count=scale.decomp_scenarios * 4, seed=_sub_seed(seed, 6))
    )
    used = 0
    violations = 0
    for idx, sc in enumerate(corpus):
        if used >= scale.decomp_scenarios:
            break
        hc, u = sc.hypotheses, sc.truth
        if not _robust_usable(hc, u):
            continue
        rng = derive_rng(seed, "crit6", idx)
        rounds = realizable_robust_rounds(hc, u, 10, rng)
        rounds = corrupt_labels(rounds, used % 4, hc.label_count, rng)
        if decomposition_gap(hc, u, rounds)["gap"] < 0:
            violations += 1
        used += 1
    return CriterionResult(
        6,
        "subset expert within dimension plus comparator",
        violations == 0 and used >= scale.decomp_scenarios,
        f"sequences={used} violations={violations}",
    )


def criterion_7(scale: Scale, seed: int) -> CriterionResult:
    """Forecaster regret within the known-horizon bound on loss matrices."""
    worst_excess = -math.inf
    combos = 0
    for n in scale.ewa_sizes:
        for horizon in scale.ewa_horizons:
            rng = derive_rng(seed, "crit7-losses", n, horizon)
            losses = (rng.random((n, horizon)) < 0.5).astype(float)
            losses[0] = (rng.random(horizon) < 0.3).astype(float)
            # with the losses passed as the predictions, each probability
            # is the forecaster's expected loss in that round, and against
            # all-zero labels a sample's mistakes are its realized loss
            probs = weight_trajectory(losses, losses, horizon_rate(n, horizon))
            best = float(losses.sum(axis=1).min())
            sample_rng = derive_rng(seed, "crit7-samples", n, horizon)
            stats = seeded_mistakes(
                probs,
                np.zeros(horizon, dtype=np.int8),
                itertools.repeat(sample_rng, scale.ewa_seeds),
                offset=best,
            )
            excess = (
                stats["mean"] - horizon_regret_bound(n, horizon) - 3 * stats["stderr"]
            )
            worst_excess = max(worst_excess, excess)
            combos += 1
    return CriterionResult(
        7,
        "forecaster regret within the horizon bound",
        worst_excess <= 0,
        f"combos={combos} worst_excess={worst_excess:.4f}",
    )


def criterion_8(scale: Scale, seed: int) -> CriterionResult:
    """Aggregated subset experts meet the agnostic regret bound."""
    corpus = generate_corpus(
        CorpusParams(count=scale.agnostic_scenarios * 8, seed=_sub_seed(seed, 8))
    )
    used = 0
    worst_ratio = -math.inf
    failures = 0
    horizon = scale.agnostic_horizon
    for idx, sc in enumerate(corpus):
        if used >= scale.agnostic_scenarios:
            break
        hc, u = sc.hypotheses, sc.truth
        dim = adversarial_dimension(hc, u)
        if not 1 <= dim <= 2 or not _robust_usable(hc, u):
            continue
        rng = derive_rng(seed, "crit8", idx)
        rounds = realizable_robust_rounds(hc, u, horizon, rng)
        rounds = corrupt_labels(rounds, 2, hc.label_count, rng)
        mc = mc_regret(hc, u, rounds, seeds=range(scale.agnostic_seeds), dimension=dim)
        ratio = mc["mean"] / mc["bound"]
        worst_ratio = max(worst_ratio, ratio)
        if mc["mean"] > mc["bound"]:
            failures += 1
        used += 1
    return CriterionResult(
        8,
        "aggregated learner within the agnostic regret bound",
        failures == 0 and used >= scale.agnostic_scenarios,
        f"scenarios={used} failures={failures} worst_ratio={worst_ratio:.4f}",
    )


def criterion_9(scale: Scale, seed: int) -> CriterionResult:
    """Phased halving within its per-phase caps, phase charge and total bound.

    With f = floor(log2 |G|) and d the true member's dimension: every
    completed phase costs at most f + 1 mistakes and the open one at most
    f; each completed phase is charged to a mistake of the true member's
    expert, which errs at most d times; the total is within halving_bound.
    """
    scenarios = generate_family_scenarios(
        scale.halving_scenarios, seed=_sub_seed(seed, 9)
    )
    total_violations = 0
    phase_violations = 0
    charge_violations = 0
    for idx, sc in enumerate(scenarios):
        hc, family = sc.hypotheses, sc.family()
        dim = adversarial_dimension(hc, family.truth)
        f = len(family).bit_length() - 1
        rng = derive_rng(seed, "crit9", idx)
        rounds = realizable_robust_rounds(hc, family.truth, scale.halving_horizon, rng)
        report = family_halving_run(hc, family, rounds)
        completed = report.phase_mistakes[: report.completed_phases]
        if any(m > f + 1 for m in completed) or report.phase_mistakes[-1] > f:
            phase_violations += 1
        truth_mistakes = report.expert_mistakes[family.truth_index]
        if not report.completed_phases <= truth_mistakes <= dim:
            charge_violations += 1
        if report.mistakes > halving_bound(hc, family):
            total_violations += 1
    return CriterionResult(
        9,
        "phased halving within its mistake bounds",
        total_violations == charge_violations == phase_violations == 0
        and bool(scenarios),
        f"scenarios={len(scenarios)} total_violations={total_violations} "
        f"phase_violations={phase_violations} "
        f"charge_violations={charge_violations}",
    )


def criterion_10(scale: Scale, seed: int) -> CriterionResult:
    """Family forecaster within the loss-budget bound."""
    scenarios = generate_family_scenarios(
        scale.family_scenarios, seed=_sub_seed(seed, 10)
    )
    worst_ratio = -math.inf
    failures = 0
    for idx, sc in enumerate(scenarios):
        hc, family = sc.hypotheses, sc.family()
        rng = derive_rng(seed, "crit10", idx)
        rounds = realizable_robust_rounds(
            hc, family.truth, scale.family_horizon, rng
        )
        mc = mc_family_mistakes(hc, family, rounds, seeds=range(scale.family_seeds))
        ratio = mc["mean"] / mc["bound"]
        worst_ratio = max(worst_ratio, ratio)
        if ratio > 1:
            failures += 1
    return CriterionResult(
        10,
        "family forecaster within the loss-budget bound",
        failures == 0 and bool(scenarios),
        f"scenarios={len(scenarios)} failures={failures} "
        f"worst_ratio={worst_ratio:.4f}",
    )


def criterion_11(scale: Scale, seed: int) -> CriterionResult:
    """Random-label regret grows like the square root of the horizon."""
    hc = full_class(2)
    u = total_map(2)
    means = []
    for horizon in TREND_HORIZONS:
        total = 0
        for s in range(scale.trend_seeds):
            probe_seed = _sub_seed(seed, 11) * 100000 + horizon * 10 + s * 7
            total += random_label_regret_sample(hc, u, horizon, probe_seed)["regret"]
        means.append(total / scale.trend_seeds)
    if min(means) <= 0:
        return CriterionResult(
            11, "random-label regret square-root trend", False, "nonpositive mean"
        )
    slope = float(
        np.polyfit(np.log(TREND_HORIZONS), np.log(means), 1)[0]
    )
    return CriterionResult(
        11,
        "random-label regret square-root trend",
        0.4 <= slope <= 0.6,
        f"horizons={list(TREND_HORIZONS)} slope={slope:.4f}",
    )


def criterion_12(scale: Scale, seed: int) -> CriterionResult:
    """Two subprocess check runs produce byte-identical output."""
    cmd = [
        sys.executable,
        "-m",
        "robust_online",
        "check",
        "--scale",
        "smoke",
        "--criteria",
        "1-11",
        "--seed",
        str(seed),
    ]
    first = subprocess.run(cmd, capture_output=True, timeout=1800)
    second = subprocess.run(cmd, capture_output=True, timeout=1800)
    identical = first.stdout == second.stdout and first.returncode == second.returncode
    return CriterionResult(
        12,
        "check output is byte-reproducible",
        identical,
        f"bytes={len(first.stdout)} identical={str(identical).lower()}",
    )


CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
    10: criterion_10,
    11: criterion_11,
    12: criterion_12,
}


def parse_criteria_spec(text: str) -> list[int]:
    """Parse "1,3,5-7" style selections into sorted criterion numbers.

    A range outside 1..12 is reported by its out-of-range endpoints.
    """
    out = set()
    bad = set()
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            if "-" in part:
                lo, hi = map(int, part.split("-", 1))
            else:
                lo = hi = int(part)
        except ValueError:
            raise ValueError(f"malformed criteria selection {part!r}") from None
        if lo > hi:
            raise ValueError(f"reversed criteria range {part!r}")
        # only a range's endpoints can lie outside 1..12; clip before expanding
        # so that a huge range costs no more than a small one
        bad.update({lo, hi} - CRITERIA.keys())
        out.update(range(max(lo, min(CRITERIA)), min(hi, max(CRITERIA)) + 1))
    if bad:
        raise ValueError(f"unknown criteria {sorted(bad)}; valid are 1..12")
    if not out:
        raise ValueError("the criteria selection names no criterion")
    return sorted(out)
