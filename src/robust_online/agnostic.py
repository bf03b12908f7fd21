"""Agnostic robust learning by aggregating subset-trained experts.

Regret is measured against the best single hypothesis under the
adversarial loss.  The pool has one expert per round subset of size at
most the class dimension; expert A_J runs the lazy optimal learner and
shows it only the rounds in J.  For the subset picked by the analysis
(the mistake rounds of the lazy learner on the clean part of the
sequence) the expert's total mistakes are at most dimension + comparator
loss, so exponentially weighted aggregation turns the pool into a
sublinear-regret learner.

expected_regret runs exponential weights over the whole pool without
making its experts.  Before round t, A_J's state on the lazy automaton is
fixed by P, the rounds of J before t, and so is its weight, a product
over the rounds already played.  So the experts fall into groups keyed by
(state s, k = |P|), and the forecaster needs only each group's total
weight: every member predicts predict(s, z_t), and every past P of the
group has the same N(T - t, d - k) futures, where
N(n, m) = subset_expert_count(n, m).  At round t a group that errs is
multiplied by exp(-rate); then, when k < d, the share
N(T-t-1, d-k-1) / N(T-t, d-k) of it whose J holds t moves to
(step(s, z, x, y), k + 1) and the rest stays at (s, k).  This is exact in
the reals, and only a handful of groups are live at once, against N
experts in the pool.  The expected regret is then exact: p_t summed
over label-0 rounds and 1 - p_t over label-1 rounds, minus the comparator
loss; mc_regret adds each forecaster seed's realized regret.
build_subset_experts gives the pool as a SubsetPool, which holds only
its size, horizon and dimension and replays itself by groups; no expert
is ever made, so the pool has no size cap.  The tests keep an
expert-by-expert reference to check the groups against.  The groups,
the analysis walk (one pass picks the subset and replays its expert) and
the random-label probe all step state ids on the (class, map)'s one lazy
automaton, which keeps no events.  A correct round leaves a lazy state
as it is, so they step the automaton only on mistake rounds.  The
probe's node is compiled once per (class, map): the witness root pair,
its shared input, the chain of the automaton's mistake edges on that
input and the distinct loss pairs of the hypotheses on the node, so its
comparator is a min over at most four pairs; it reads its labels from
raw words and finds each mistake by a byte scan of them.
"""

import math

import numpy as np

from .dimension import adversarial_dimension, witness_tree
from .errors import DomainError
from .forecaster import COIN_TABLES, expected_mistakes, horizon_rate, seeded_mistakes

# nothing here calls it, but the benchmark's tracer wraps
# agnostic.weight_trajectory by name until the package keeps its own counters
from .forecaster import weight_trajectory  # noqa: F401
from .learners import LazyRobustAutomaton, binary_context
from .model import HypothesisClass, PerturbationMap, checked_rounds, compiled, consistency_masks
from .seeding import derive_rng, label_bytes


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
    rounds = checked_rounds(hc, rounds)
    totals = hypothesis_losses(hc, u, rounds)
    best = min(totals)
    return best, totals.index(best)


def subset_expert_count(horizon: int, dimension: int) -> int:
    return sum(math.comb(horizon, k) for k in range(min(dimension, horizon) + 1))


class SubsetPool:
    """The subset experts of one horizon, as a count and a group replay.

    size is the expert count; group_trajectory replays exponential
    weights over every expert without making any of them.
    """

    def __init__(self, hc: HypothesisClass, u: PerturbationMap, horizon: int, dimension: int):
        self.size = subset_expert_count(horizon, dimension)
        self.hc, self.u = hc, u
        self.horizon, self.dimension = horizon, min(dimension, horizon)

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
    """The pool of one expert per round subset of size at most the class
    dimension, as its size and its group replay.  No expert is made, so
    any horizon is accepted; expected_regret builds one pool per estimate.
    """
    if dimension is None:
        dimension = adversarial_dimension(hc, u)
    return SubsetPool(hc, u, horizon, dimension)


def expected_regret(hc: HypothesisClass, u: PerturbationMap, rounds, dimension=None) -> dict:
    """Exact expected regret of the aggregated learner, with the paper's
    agnostic bound dimension + sqrt((T/2) ln N) for N experts.

    The pool is replayed once, by groups, without making its experts, and
    the forecaster runs at the known-horizon rate for the pool size.
    probabilities holds the per-round probability of predicting 1, and
    expected is the expected mistakes they give minus the comparator
    loss.  groups is the largest number of groups live in one round.
    """
    rounds = checked_rounds(hc, rounds)
    binary_context(hc, u)  # refuses more than two labels before any search
    if dimension is None:
        dimension = adversarial_dimension(hc, u)
    pool = build_subset_experts(hc, u, len(rounds), dimension)
    if not rounds:
        raise DomainError("need at least one round")
    n = pool.size
    probs, groups = pool.group_trajectory(rounds, horizon_rate(n, len(rounds)))
    best, _ = comparator_loss(hc, u, rounds)
    return {
        "expected": expected_mistakes(probs, [y for _, _, y in rounds]) - best,
        "comparator": best,
        "expert_count": n,
        "groups": groups,
        "bound": dimension + math.sqrt(len(rounds) / 2 * math.log(n)),
        "probabilities": probs,
    }


def mc_regret(hc: HypothesisClass, u: PerturbationMap, rounds, seeds, dimension=None) -> dict:
    """expected_regret plus the realized regret of each forecaster seed,
    summarized as seeded_mistakes does; a one-seed run is seeds=[seed]."""
    rounds = list(rounds)
    exact = expected_regret(hc, u, rounds, dimension)
    labels = np.array([y for _, _, y in rounds])
    coins = COIN_TABLES.blocks("agnostic", seeds, len(rounds), derive_rng)
    stats = seeded_mistakes(exact["probabilities"], labels, coins, offset=exact["comparator"])
    return {**exact, **stats}


def decomposition_gap(hc: HypothesisClass, u: PerturbationMap, rounds) -> dict:
    """Replay the analysis expert on the full sequence and report its slack.

    The analysis picks a subset of rounds: it takes the comparator
    hypothesis, keeps the rounds it labels for free, and replays the lazy
    optimal learner on that clean subsequence; the picked rounds are the
    learner's mistake rounds there.  The expert predicts every round and
    is stepped only on the picked rounds, so one walk of the lazy
    automaton picks them and counts its mistakes.  Its total mistakes must
    never exceed dimension + comparator loss; the returned gap is bound
    minus realized mistakes (>= 0).
    """
    rounds = checked_rounds(hc, rounds)
    binary_context(hc, u)  # refuses more than two labels before any search
    if not rounds:
        raise DomainError("need at least one round")
    best, best_id = comparator_loss(hc, u, rounds)
    masks = consistency_masks(hc, u)
    lazy, s = compiled(hc, u, LazyRobustAutomaton), 0
    picked, mistakes = [], 0
    for t, (z, x, y) in enumerate(rounds):
        if lazy.predict(s, z) != y:  # a correct round is a self-loop
            mistakes += 1
            if masks[x][y] >> best_id & 1:
                picked.append(t)
                s = lazy.step(s, z, x, y)
    dim = adversarial_dimension(hc, u)
    return {
        "expert_mistakes": mistakes,
        "bound": dim + best,
        "gap": dim + best - mistakes,
        "dimension": dim,
        "comparator": best,
        "subset": tuple(picked),
        "best_hypothesis": best_id,
    }


# the probe's labels as bytes: b"\x00" is label 0, b"\x01" label 1
_LABEL_BYTES = (b"\x00", b"\x01")


def _build_probe(hc: HypothesisClass, u: PerturbationMap):
    """The random-label probe's per-(class, map) data: the witness root
    pair (x0, x1), the input z both perturb to, the lazy learner's
    mistake chain, and the distinct (loss on (x0, 0), loss on (x1, 1))
    pairs over the hypotheses.

    Every round of the probe shows z, so the lazy learner's state is set
    by its mistakes alone: in state s it predicts p, the next label that
    is not p is its next mistake, and that reveal, (x_y, y) with y = 1 - p,
    takes it to one next state.  The chain walks the automaton from state
    0 along those edges and keeps one link (mistake label byte, absorbing)
    per state, absorbing when the mistake edge is a self-loop; that link
    ends the chain.  The walk ends: a step ANDs the robust mask and the
    orientation mask with reveal masks, so each is a subset of its value
    before, and a step that leaves the state clears at least one bit of
    the two.  The total bit count falls on every link but the last, so no
    state repeats and the chain has at most 2 |H| + 1 links.
    """
    # the automaton refuses more than two labels (binary_context) before any search
    lazy = compiled(hc, u, LazyRobustAutomaton)
    tree = witness_tree(hc, u)
    if tree.depth < 1 or tree.root is None:
        raise DomainError("need dimension >= 1 to build the probe node")
    x0, x1 = tree.root.pair
    z = min(u.forward[x0] & u.forward[x1])
    masks = consistency_masks(hc, u)
    losses = {(1 - (masks[x0][0] >> i & 1), 1 - (masks[x1][1] >> i & 1)) for i in range(hc.size)}
    chain, s = [], 0
    while True:
        y = 1 - lazy.predict(s, z)
        nxt = lazy.step(s, z, (x0, x1)[y], y)
        chain.append((_LABEL_BYTES[y], nxt == s))
        if nxt == s:
            break
        s = nxt
    return x0, x1, z, tuple(chain), tuple(sorted(losses))


def random_label_regret_sample(
    hc: HypothesisClass,
    u: PerturbationMap,
    horizon: int,
    seed: int,
) -> dict:
    """Realized regret of the lazy optimal learner, run tolerantly, on one
    dimension-witnessing node replayed with uniformly random labels.

    The node is the root of the maximum shattered tree; the class must
    have dimension at least 1.  The node, its input, the learner's mistake
    chain and the comparator's distinct loss pairs are compiled once per
    (class, map), so the comparator is a min over at most four pairs.
    The labels are those of rng.integers(0, 2, size=horizon), decoded by
    seeding.label_bytes from the stream's raw 64-bit words.  A correct
    round leaves the learner's state as it is, so the probe replays the
    chain: each link's mistake is the next label byte that differs from
    the state's prediction, found by a byte scan, and at the absorbing
    link, whose state keeps its prediction for good, the rest of the
    mistakes are counted off the remaining labels.
    """
    if horizon < 0:
        raise DomainError(f"horizon must be nonnegative, got {horizon}")
    x0, x1, z, chain, losses = compiled(hc, u, _build_probe)
    seq = label_bytes(derive_rng(seed, "random-label-probe"), horizon)
    mistakes = t = 0
    for label, absorbing in chain:
        t = seq.find(label, t)
        if t < 0:
            break
        if absorbing:
            mistakes += seq.count(label, t)
            break
        t, mistakes = t + 1, mistakes + 1
    n1 = seq.count(_LABEL_BYTES[1])
    n0 = horizon - n1
    comparator = min([n0 * a + n1 * b for a, b in losses])
    return {
        "regret": mistakes - comparator,
        "mistakes": mistakes,
        "comparator": comparator,
        "node": (x0, x1),
        "perturbed_input": z,
    }
