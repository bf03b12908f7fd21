"""Acceptance suite: the checks the package promises to satisfy.

Each criterion is a pure function of a scale configuration and a seed, so
two runs with the same arguments print byte-identical result lines.  The
"full" scale is authoritative; "smoke" exists for quick iteration and for
the reproducibility criterion, which compares two subprocess runs.

Criteria 3, 5, 7, 8 and 10 are exact, not sampled.  The strict optimal
learners are deterministic and their masks only shrink, so their states
under all realizable reveals form a DAG plus self-loops, and the worst
case over every realizable sequence is a longest path in it.  The
mistake bound caps it at the dimension and the witness-tree adversary
forces the dimension, so criterion 3 asks for equality in both games.
Criteria 7, 8 and 10 flip no coin: their bounds are on expected loss,
and they gate it exactly, as forecaster.expected_mistakes sums it.

Wall-clock never appears in result lines.  Where a criterion carries a
runtime budget, the elapsed time feeds the verdict but not the text.
"""

import math
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

from .adversaries import RobustChoices, corrupt_labels, realizable_robust_rounds, tree_adversary
from .agnostic import decomposition_gap, expected_regret, random_label_regret_sample
from .dimension import adversarial_dimension, classic_littlestone_dimension, get_engine, witness_tree
from .errors import ProtocolViolation, SearchInvariantError
from .forecaster import expected_mistakes, horizon_regret_bound, horizon_rate, weight_trajectory
from .learners import LEARNER_NAMES, OPTIMAL, make_learner, worst_case_mistakes
from .model import compiled, full_class, total_map
from .oracle import optimal_mistake_bound
from .runner import run_game
from .scenario import CorpusParams, generate_corpus, generate_family_scenarios
from .seeding import derive_rng
from .uncertain import family_expected_mistakes, family_halving_run, halving_bound


@dataclass(frozen=True)
class Scale:
    name: str
    corpus_count: int
    classic_count: int
    conform_binary: int
    conform_multiclass: int
    tree_scenarios: int
    decomp_scenarios: int
    ewa_sizes: tuple[int, ...]
    ewa_horizons: tuple[int, ...]
    agnostic_scenarios: int
    agnostic_horizon: int
    halving_scenarios: int
    halving_horizon: int
    family_scenarios: int
    family_horizon: int
    trend_seeds: int


FULL = Scale(
    name="full",
    corpus_count=200,
    classic_count=100,
    conform_binary=24,
    conform_multiclass=8,
    tree_scenarios=120,
    decomp_scenarios=50,
    ewa_sizes=(4, 8, 16),
    ewa_horizons=(256, 1024),
    agnostic_scenarios=10,
    agnostic_horizon=12,
    halving_scenarios=102,
    halving_horizon=20,
    family_scenarios=9,
    family_horizon=12,
    trend_seeds=2000,
)

SMOKE = Scale(
    name="smoke",
    corpus_count=24,
    classic_count=12,
    conform_binary=4,
    conform_multiclass=2,
    tree_scenarios=12,
    decomp_scenarios=10,
    ewa_sizes=(4, 8),
    ewa_horizons=(64, 256),
    agnostic_scenarios=3,
    agnostic_horizon=10,
    halving_scenarios=12,
    halving_horizon=12,
    family_scenarios=3,
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
    return any(map(compiled(hc, u, RobustChoices).codes, range(hc.size)))


def criterion_1(scale: Scale, seed: int) -> CriterionResult:
    """Dimension equals the exact minimax value of both games."""
    corpus = generate_corpus(CorpusParams(count=scale.corpus_count, seed=_sub_seed(seed, 1)))
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
    params = CorpusParams(count=scale.classic_count, seed=_sub_seed(seed, 2), strata=("identity",))
    corpus = generate_corpus(params)
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


def _walks(scale: Scale, seed: int, games: tuple[str, ...]):
    """(dimension engine, worst case or None where the walk raised, mistake
    edges) of the strict optimal learner of each game, on every scenario of
    a binary and a 3-label corpus."""
    for count, labels in ((scale.conform_binary, 2), (scale.conform_multiclass, 3)):
        params = CorpusParams(count=count, seed=_sub_seed(seed, 3) + labels, label_count=labels)
        for sc in generate_corpus(params):
            hc, u = sc.hypotheses, sc.truth
            for game in games:
                edges = []
                try:
                    worst = worst_case_mistakes(hc, u, game, mistakes=edges)
                except (ProtocolViolation, SearchInvariantError):
                    worst = None
                yield get_engine(hc, u), worst, edges


def criterion_3(scale: Scale, seed: int) -> CriterionResult:
    """The optimal learners' worst case over every realizable sequence is
    exactly the dimension d, in both games.

    The strict learners are deterministic and their masks only shrink, so
    worst_case_mistakes finds the worst case as the longest path through a
    learner's state graph, a DAG plus self-loops; a mistake on a
    self-loop, or a reveal the strict learner rejects, is a violation.  At
    most d is the mistake bound.  At least d holds because the witness-tree
    adversary forces d mistakes from any learner on a realizable sequence,
    so a value below d means the walk missed moves.  A class with no
    realizable move has d = 0 and worst case 0, so every scenario counts.
    """
    walks = list(_walks(scale, seed, ("robust", "orientation")))
    total = sum(worst or 0 for _, worst, _ in walks)
    violations = sum(worst != engine.dimension() for engine, worst, _ in walks)
    return CriterionResult(
        3,
        "optimal learners' worst case is exactly the dimension",
        violations == 0 and bool(walks),
        f"games={len(walks)} worst_total={total} violations={violations}",
    )


def criterion_5(scale: Scale, seed: int) -> CriterionResult:
    """Every mistake edge (mask, next mask) the strict orientation learner
    can reach on a realizable sequence lowers its version space's dimension.

    The two sides of a node cannot both keep the dimension, or the version
    space would shatter a deeper tree, and a mistake reveals the side the
    SOA rule ranked no higher.  A walk that raised is a violation."""
    walks = list(_walks(scale, seed, ("orientation",)))
    edges = violations = 0
    for engine, worst, mistakes in walks:
        dim = engine.dimension_of_mask
        edges += len(mistakes)
        violations += (worst is None) + sum(dim(t) >= dim(s) for s, t in mistakes)
    return CriterionResult(
        5,
        "every orientation mistake shrinks the dimension",
        violations == 0 and bool(walks),
        f"games={len(walks)} mistake_edges={edges} violations={violations}",
    )


def criterion_4(scale: Scale, seed: int) -> CriterionResult:
    """Tree adversaries force exactly the dimension from the optimal
    learners and at least the dimension from every baseline."""
    corpus = generate_corpus(CorpusParams(count=scale.tree_scenarios, seed=_sub_seed(seed, 4)))
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
    """Forecaster expected regret within the known-horizon bound on loss
    matrices."""
    worst_excess = -math.inf
    combos = 0
    for n in scale.ewa_sizes:
        for horizon in scale.ewa_horizons:
            rng = derive_rng(seed, "crit7-losses", n, horizon)
            losses = (rng.random((n, horizon)) < 0.5).astype(float)
            losses[0] = (rng.random(horizon) < 0.3).astype(float)
            # with the losses passed as the predictions, each probability
            # is the forecaster's expected loss in that round, and against
            # all-zero labels the expected mistakes are the expected loss
            probs = weight_trajectory(losses, losses, horizon_rate(n, horizon))
            best = float(losses.sum(axis=1).min())
            expected = expected_mistakes(probs, np.zeros(horizon))
            excess = expected - best - horizon_regret_bound(n, horizon)
            worst_excess = max(worst_excess, excess)
            combos += 1
    return CriterionResult(
        7,
        "forecaster regret within the horizon bound",
        worst_excess <= 0,
        f"combos={combos} worst_excess={worst_excess:.4f}",
    )


def criterion_8(scale: Scale, seed: int) -> CriterionResult:
    """Aggregated subset experts' expected regret meets the agnostic bound."""
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
        exact = expected_regret(hc, u, rounds, dimension=dim)
        ratio = exact["expected"] / exact["bound"]
        worst_ratio = max(worst_ratio, ratio)
        if exact["expected"] > exact["bound"]:
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
    scenarios = generate_family_scenarios(scale.halving_scenarios, seed=_sub_seed(seed, 9))
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
    """Family forecaster's expected mistakes within the loss-budget bound."""
    scenarios = generate_family_scenarios(scale.family_scenarios, seed=_sub_seed(seed, 10))
    worst_ratio = -math.inf
    failures = 0
    for idx, sc in enumerate(scenarios):
        hc, family = sc.hypotheses, sc.family()
        rng = derive_rng(seed, "crit10", idx)
        rounds = realizable_robust_rounds(hc, family.truth, scale.family_horizon, rng)
        exact = family_expected_mistakes(hc, family, rounds)
        ratio = exact["expected"] / exact["bound"]
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
    slope = float(np.polyfit(np.log(TREND_HORIZONS), np.log(means), 1)[0])
    return CriterionResult(
        11,
        "random-label regret square-root trend",
        0.4 <= slope <= 0.6,
        f"horizons={list(TREND_HORIZONS)} slope={slope:.4f}",
    )


def criterion_12(scale: Scale, seed: int) -> CriterionResult:
    """Two subprocess smoke checks both pass all 11 criteria, byte for byte alike."""
    cmd = [sys.executable, "-m", "robust_online", "check", "--scale", "smoke", "--criteria", "1-11"]
    cmd += ["--seed", str(seed)]
    first = subprocess.run(cmd, capture_output=True, timeout=1800)
    second = subprocess.run(cmd, capture_output=True, timeout=1800)
    identical = first.stdout == second.stdout and first.returncode == second.returncode
    # two children that both fail, or both stop early, are identical too
    final = b"passed 11 of 11 criteria at scale smoke"
    completed = all(
        run.returncode == 0 and run.stdout.splitlines()[-1:] == [final] for run in (first, second)
    )
    detail = f"bytes={len(first.stdout)} identical={str(identical).lower()}"
    if not completed:
        detail += " completed=false"
    return CriterionResult(12, "check output is byte-reproducible", identical and completed, detail)


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
