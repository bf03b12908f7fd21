"""Agnostic robust learning by aggregating subset-trained experts.

Regret is measured against the best single hypothesis under the
adversarial loss.  One expert is built per round subset of size at most
the class dimension; expert A_J runs the lazy optimal learner and shows it
only the rounds in J.  For the subset picked by the analysis (the mistake
rounds of the lazy learner on the clean part of the sequence) the expert's
total mistakes are at most dimension + comparator loss, so exponentially
weighted aggregation turns the pool into a sublinear-regret learner.

mc_regret replays the pool once over the fixed sequence
(forecaster.expert_matrices) and scores every forecaster seed, one or
many, against the resulting trajectory with the seeds' cached coin table;
decomposition_gap replays the analysis expert the same way.  The experts,
the analysis pass and the random-label probe all step state ids on the
(class, map)'s one lazy automaton, which keeps no events.  A correct round
leaves a lazy state as it is, so the analysis pass and the probe step the
automaton only on mistake rounds.
"""

import itertools
import math

import numpy as np

from .dimension import adversarial_dimension, witness_tree
from .errors import DomainError, LimitExceeded
from .forecaster import (
    COIN_TABLES,
    expert_matrices,
    horizon_rate,
    seeded_mistakes,
    weight_trajectory,
)
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


def build_subset_experts(
    hc: HypothesisClass,
    u: PerturbationMap,
    horizon: int,
    dimension: int | None = None,
) -> list[SubsetExpert]:
    """One expert per round subset of size at most the class dimension.

    Deterministic order: subsets by size, then lexicographically.  Raises
    when the pool would exceed the desk-scale cap, stating the needed count.
    """
    if dimension is None:
        dimension = adversarial_dimension(hc, u)
    need = subset_expert_count(horizon, dimension)
    if need > MAX_EXPERTS:
        raise LimitExceeded(
            f"subset pool needs {need} experts for horizon {horizon} and "
            f"dimension {dimension}; the cap is {MAX_EXPERTS}"
        )
    experts = []
    for k in range(min(dimension, horizon) + 1):
        for combo in itertools.combinations(range(horizon), k):
            experts.append(SubsetExpert(combo, hc, u))
    return experts


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

    The pool is replayed once and the forecaster runs at the known-horizon
    rate for the pool size.  probabilities holds the per-round probability
    of predicting 1, which does not depend on the seeds; a one-seed run is
    seeds=[seed].
    """
    rounds = list(rounds)
    if dimension is None:
        dimension = adversarial_dimension(hc, u)
    experts = build_subset_experts(hc, u, len(rounds), dimension)
    preds, losses = expert_matrices(experts, rounds)
    n = len(experts)
    probs = weight_trajectory(preds, losses, horizon_rate(n, len(rounds)))
    labels = np.array([y for _, _, y in rounds])
    best, _ = comparator_loss(hc, u, rounds)
    coins = COIN_TABLES.blocks("agnostic", seeds, len(rounds), derive_rng)
    stats = seeded_mistakes(probs, labels, coins, offset=best)
    bound = dimension + math.sqrt(len(rounds) / 2 * math.log(n))
    return {
        **stats,
        "comparator": best,
        "expert_count": n,
        "bound": bound,
        "probabilities": probs.tolist(),
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
