"""Agnostic robust learning by aggregating subset-trained experts.

Regret is measured against the best single hypothesis under the
adversarial loss.  One expert is built per round subset of size at most
the class dimension; expert A_J runs the lazy optimal learner and shows it
only the rounds in J.  For the subset picked by the analysis (the mistake
rounds of the lazy learner on the clean part of the sequence) the expert's
total mistakes are at most dimension + comparator loss, so exponentially
weighted aggregation turns the pool into a sublinear-regret learner.

mc_regret runs exponential weights over the whole pool without making
its experts.  Before round t, A_J's state on the lazy automaton is fixed
by P, the rounds of J before t, and so is its weight, a product over the
rounds already played.  So the experts fall into groups keyed by
(state s, k = |P|), and the forecaster needs only each group's total
weight: every member predicts predict(s, z_t), and every past P of the
group has the same N(T - t, d - k) futures, where
N(n, m) = subset_expert_count(n, m).  At round t a group that errs is
multiplied by exp(-rate); then, when k < d, the share
N(T-t-1, d-k-1) / N(T-t, d-k) of it whose J holds t moves to
(step(s, z, x, y), k + 1) and the rest stays at (s, k).  This is exact in
the reals, and only a handful of groups are live at once, against N
experts in the pool.  Every forecaster seed, one or many, is then scored
against the probabilities with the seeds' cached coin table.
build_subset_experts gives the pool as a SubsetPool, whose experts are
made only when it is indexed or iterated: mc_regret reads its size and
replays it by groups, and the tests replay its experts one by one with
forecaster.expert_matrices as the reference, the way decomposition_gap
replays the analysis expert.  The groups, the analysis pass and the
random-label probe all step state ids on the (class, map)'s one lazy
automaton, which keeps no events.  A correct round leaves a lazy state
as it is, so they step the automaton only on mistake rounds.
"""

import itertools
import math
from collections.abc import Sequence

import numpy as np

from .dimension import adversarial_dimension, witness_tree
from .errors import DomainError, LimitExceeded
from .forecaster import COIN_TABLES, expert_matrices, horizon_rate, seeded_mistakes

# nothing here calls it, but the benchmark's tracer wraps
# agnostic.weight_trajectory by name until the package keeps its own counters
from .forecaster import weight_trajectory  # noqa: F401
from .learners import LazyRobustAutomaton
from .model import HypothesisClass, PerturbationMap, compiled, consistency_masks
from .seeding import derive_rng

MAX_EXPERTS = 20000


def hypothesis_losses(hc: HypothesisClass, u: PerturbationMap, rounds) -> list[int]:
    """Total adversarial loss of each hypothesis on the clean pairs."""
    masks = consistency_masks(hc, u)
    totals = [0] * hc.size
    for _, x, y in rounds:
        for i in range(hc.size):
            totals[i] += 1 - (masks[x][y] >> i & 1)
    return totals


def comparator_loss(hc: HypothesisClass, u: PerturbationMap, rounds) -> tuple[int, int]:
    """(best total adversarial loss, smallest hypothesis id achieving it)."""
    totals = hypothesis_losses(hc, u, rounds)
    best = min(totals)
    return best, totals.index(best)


class SubsetExpert:
    """The lazy optimal learner, shown only the rounds in one subset.

    A view on the (class, map)'s shared automaton: the expert holds only
    its state id, so experts in the same state share every prediction and
    transition, and no events are kept.  Rounds are counted from 0 by the
    updates the expert has received.
    """

    def __init__(self, indices, hc: HypothesisClass, u: PerturbationMap):
        self.indices = frozenset(indices)
        self.automaton = compiled(hc, u, LazyRobustAutomaton)
        self.state = 0
        self.round = 0

    def predict(self, z: int) -> int:
        return self.automaton.predict(self.state, z)

    def update(self, z: int, x: int, y: int) -> None:
        if self.round in self.indices:
            self.state = self.automaton.step(self.state, z, x, y)
        self.round += 1


def subset_expert_count(horizon: int, dimension: int) -> int:
    return sum(math.comb(horizon, k) for k in range(min(dimension, horizon) + 1))


class SubsetPool(Sequence):
    """The subset experts of one horizon, made on first access.

    len() is the expert count, checked against the cap when the pool is
    built; indexing or iterating makes every expert once, in the order
    subsets by size, then lexicographically.  group_trajectory replays
    the pool by groups and makes none of them.
    """

    def __init__(self, hc: HypothesisClass, u: PerturbationMap, horizon: int, dimension: int):
        self.size = subset_expert_count(horizon, dimension)
        if self.size > MAX_EXPERTS:
            raise LimitExceeded(
                f"subset pool needs {self.size} experts for horizon {horizon} and "
                f"dimension {dimension}; the cap is {MAX_EXPERTS}"
            )
        self.hc, self.u = hc, u
        self.horizon, self.dimension = horizon, min(dimension, horizon)
        self._experts = None

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, i):
        return self._made()[i]

    def __iter__(self):
        return iter(self._made())

    def _made(self) -> list[SubsetExpert]:
        if self._experts is None:
            self._experts = [
                SubsetExpert(combo, self.hc, self.u)
                for k in range(self.dimension + 1)
                for combo in itertools.combinations(range(self.horizon), k)
            ]
        return self._experts

    def group_trajectory(self, rounds, rate: float):
        """(per-round probabilities of predicting 1, peak live groups) of
        exponential weights at the given rate over the whole pool, on
        rounds as many as the pool's horizon.

        Groups map (state id, k) to their members' total weight, up to a
        common factor; see the module docstring for why this is exact.
        """
        lazy = compiled(self.hc, self.u, LazyRobustAutomaton)
        horizon, d = self.horizon, self.dimension
        # futures[n][m] = subset_expert_count(n, m), by N(n, m) = N(n-1, m) + N(n-1, m-1)
        futures = [[1] * (d + 1)]
        for _ in range(horizon):
            row = futures[-1]
            futures.append([1] + [row[m] + row[m - 1] for m in range(1, d + 1)])
        decay = math.exp(-rate)
        groups = {(0, 0): 1.0}
        probs, peak = [], 0
        for t, (z, x, y) in enumerate(rounds):
            peak = max(peak, len(groups))
            now, later = futures[horizon - t], futures[horizon - t - 1]
            keep = [later[d - k] / now[d - k] for k in range(d + 1)]
            move = [later[d - k - 1] / now[d - k] for k in range(d)]
            total = ones = 0.0
            after = {}
            for (s, k), w in groups.items():
                pred = lazy.predict(s, z)
                total += w
                if pred:
                    ones += w
                if pred == y:
                    nxt = s  # a correct round is a self-loop
                else:
                    nxt = lazy.step(s, z, x, y)
                    w *= decay
                key = (s, k)
                after[key] = after.get(key, 0.0) + w * keep[k]
                if k < d:
                    key = (nxt, k + 1)
                    after[key] = after.get(key, 0.0) + w * move[k]
            probs.append(ones / total)
            top = max(after.values())
            groups = {key: w / top for key, w in after.items()}
        return probs, peak


def build_subset_experts(
    hc: HypothesisClass,
    u: PerturbationMap,
    horizon: int,
    dimension: int | None = None,
) -> SubsetPool:
    """One expert per round subset of size at most the class dimension.

    Deterministic order: subsets by size, then lexicographically.  Raises
    when the pool would exceed the desk-scale cap, stating the needed count.
    """
    if dimension is None:
        dimension = adversarial_dimension(hc, u)
    return SubsetPool(hc, u, horizon, dimension)


def mc_regret(
    hc: HypothesisClass,
    u: PerturbationMap,
    rounds,
    seeds,
    dimension: int | None = None,
) -> dict:
    """Monte-Carlo regret statistics of the aggregated learner over
    forecaster seeds, with the paper's agnostic bound
    dimension + sqrt((T/2) ln N) for N experts.

    The pool is replayed once, by groups, without making its experts, and
    the forecaster runs at the known-horizon rate for the pool size.  probabilities holds the
    per-round probability of predicting 1, which does not depend on the
    seeds; a one-seed run is seeds=[seed].  groups is the largest number
    of groups live in one round.
    """
    rounds = list(rounds)
    if dimension is None:
        dimension = adversarial_dimension(hc, u)
    pool = build_subset_experts(hc, u, len(rounds), dimension)
    if not rounds:
        raise DomainError("need at least one round")
    n = len(pool)
    probs, groups = pool.group_trajectory(rounds, horizon_rate(n, len(rounds)))
    labels = np.array([y for _, _, y in rounds])
    best, _ = comparator_loss(hc, u, rounds)
    coins = COIN_TABLES.blocks("agnostic", seeds, len(rounds), derive_rng)
    stats = seeded_mistakes(probs, labels, coins, offset=best)
    bound = dimension + math.sqrt(len(rounds) / 2 * math.log(n))
    return {
        **stats,
        "comparator": best,
        "expert_count": n,
        "groups": groups,
        "bound": bound,
        "probabilities": probs,
    }


def analysis_subset(hc: HypothesisClass, u: PerturbationMap, rounds) -> tuple:
    """The subset the decomposition argument picks for a given sequence.

    Takes the comparator hypothesis, keeps the rounds it labels for free,
    replays the lazy optimal learner on that clean subsequence, and
    returns (mistake round indices, comparator loss, comparator id).
    """
    best, best_id = comparator_loss(hc, u, rounds)
    masks = consistency_masks(hc, u)
    clean = [(t, r) for t, r in enumerate(rounds) if masks[r[1]][r[2]] >> best_id & 1]
    lazy, s = compiled(hc, u, LazyRobustAutomaton), 0
    picked = []
    for t, (z, x, y) in clean:
        if lazy.predict(s, z) != y:  # a correct round is a self-loop
            picked.append(t)
            s = lazy.step(s, z, x, y)
    return tuple(picked), best, best_id


def decomposition_gap(hc: HypothesisClass, u: PerturbationMap, rounds) -> dict:
    """Replay the analysis expert on the full sequence and report its slack.

    The expert's total mistakes must never exceed dimension + comparator
    loss; the returned gap is bound minus realized mistakes (>= 0).
    """
    picked, best, best_id = analysis_subset(hc, u, rounds)
    _, losses = expert_matrices([SubsetExpert(picked, hc, u)], rounds)
    mistakes = int(losses.sum())
    dim = adversarial_dimension(hc, u)
    return {
        "expert_mistakes": mistakes,
        "bound": dim + best,
        "gap": dim + best - mistakes,
        "dimension": dim,
        "comparator": best,
        "subset": picked,
        "best_hypothesis": best_id,
    }


def random_label_regret_sample(
    hc: HypothesisClass,
    u: PerturbationMap,
    horizon: int,
    seed: int,
) -> dict:
    """Realized regret of the lazy optimal learner, run tolerantly, on one
    dimension-witnessing node replayed with uniformly random labels.

    The node is the root of the maximum shattered tree; the class must
    have dimension at least 1.  The learner is stepped as state ids on
    the (class, map)'s lazy automaton, which keeps no events, and only on
    the rounds it gets wrong: a correct round is a self-loop, so the next
    mistake is the next label that differs from the prediction.  A state
    whose mistake step is also a self-loop keeps its prediction for good,
    and the rest of the mistakes are counted off the remaining labels.
    """
    if horizon < 0:
        raise DomainError(f"horizon must be nonnegative, got {horizon}")
    tree = witness_tree(hc, u)
    if tree.depth < 1 or tree.root is None:
        raise DomainError("need dimension >= 1 to build the probe node")
    x0, x1 = tree.root.pair
    z = min(u.forward[x0] & u.forward[x1])
    rng = derive_rng(seed, "random-label-probe")
    labels = rng.integers(0, 2, size=horizon)
    seq = labels.tolist()
    lazy, s = compiled(hc, u, LazyRobustAutomaton), 0
    mistakes = t = 0
    while True:
        y = 1 - lazy.predict(s, z)
        try:
            t = seq.index(y, t)
        except ValueError:
            break
        nxt = lazy.step(s, z, (x0, x1)[y], y)
        if nxt == s:  # both reveals keep s: every later y is a mistake
            mistakes += seq[t:].count(y)
            break
        s, t, mistakes = nxt, t + 1, mistakes + 1
    n1 = int(labels.sum())
    n0 = horizon - n1
    masks = consistency_masks(hc, u)
    comparator = min(
        n0 * (1 - (masks[x0][0] >> i & 1)) + n1 * (1 - (masks[x1][1] >> i & 1))
        for i in range(hc.size)
    )
    return {
        "regret": mistakes - comparator,
        "mistakes": mistakes,
        "comparator": comparator,
        "node": (x0, x1),
        "perturbed_input": z,
    }
