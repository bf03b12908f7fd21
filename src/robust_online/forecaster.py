"""Exponentially weighted aggregation of binary expert predictions.

The forecaster keeps one positive weight per expert, predicts 1 with
probability equal to the weight fraction voting 1, and multiplies each
weight by exp(-rate * loss) after the reveal.  For 0/1 expert predictions
and 0/1 labels the expected mistake rate equals the weighted average of
the expert losses, so both classic regret regimes apply:

  rate = sqrt(8 ln N / T)            expected regret <= sqrt((T/2) ln N)
  rate = ln(1 + sqrt(2 ln N / L*))   expected loss  <= L* + sqrt(2 L* ln N) + ln N

where L* bounds the best expert's total loss.  A loss budget of 0 is
clamped to 1 in both loss_budget_rate and small_loss_bound: the rate has
no finite value at 0, and the bound holds for the budget the rate was
tuned for, not below it.  Weights are renormalized by their maximum every
update, which changes nothing (predictions depend only on weight ratios)
and keeps them away from underflow.

Experts react to the revealed sequence only, never to the forecaster's
coin flips, so a run is replayed in three steps: the family experts
(uncertain) are stepped over the fixed sequence once, as state ids, into
0/1 prediction and loss lists, one row per expert; weight_trajectory
walks their columns in Python floats into the per-round probabilities
p_t; and expected_mistakes sums p_t on label 0 and 1 - p_t on label 1.
p_t depends only on past rounds, so that sum is the exact expected loss
the bounds above are about, and every gate reads it.  The subset experts
(agnostic) have no rows: their pool computes the probabilities by groups
and shares only the scoring.  Over a few experts, NumPy calls would cost
more than the arithmetic, and Python's sums run in one order on every
host; the expected sum is math.fsum's, correctly rounded, so no order of
the rounds, no host and no Python moves its last bit.  Only mc_regret
and mc_family_mistakes still flip coins, for the
realized samples the benchmark digests: seeded_mistakes scores every
seed's coins in one NumPy array expression.  A seed's coins depend only
on its (seed, stream) generator, never on the scenario, so COIN_TABLES
builds each (stream, seeds) table of uniforms once per process and keeps
it in an LRU bounded by a fixed number of cells.  Row i holds the first
draws of the i-th seed's generator: random(T) is a prefix of random(T')
for T' > T, so a kept table answers any shorter horizon, and a one-seed
run is the same computation as a Monte-Carlo one.  A table too big to
keep is built and scored in row blocks, so an estimate's memory does not
grow with its seed count.  The tests keep a stepwise forecaster as the
reference for these steps.
"""

import math
from collections import OrderedDict

import numpy as np

from .errors import DomainError


def horizon_rate(n_experts: int, horizon: int) -> float:
    if n_experts < 1 or horizon < 1:
        raise ValueError("need at least one expert and one round")
    return math.sqrt(8.0 * math.log(max(n_experts, 2)) / horizon)


def loss_budget_rate(n_experts: int, loss_budget: int) -> float:
    """Tuning for a known bound on the best expert's total loss.

    A budget of 0 is clamped to 1; the small-loss guarantee below is
    stated for budgets >= 1.
    """
    if n_experts < 1:
        raise ValueError("need at least one expert")
    budget = max(int(loss_budget), 1)
    return math.log(1.0 + math.sqrt(2.0 * math.log(max(n_experts, 2)) / budget))


def horizon_regret_bound(n_experts: int, horizon: int) -> float:
    return math.sqrt(horizon / 2.0 * math.log(max(n_experts, 2)))


def small_loss_bound(n_experts: int, loss_budget: int) -> float:
    """Expected-loss guarantee of loss_budget_rate, with the same clamp."""
    n = math.log(max(n_experts, 2))
    budget = max(int(loss_budget), 1)
    return budget + math.sqrt(2.0 * budget * n) + n


class CoinTables:
    """LRU of read-only coin tables, keyed by (stream, seeds).

    blocks(stream, seeds, horizon, derive) gives row blocks whose i-th row
    across them is derive(seeds[i], stream).random(horizon); derive is
    derive_rng or a wrapper of it, which hashes each seed's str(), so a
    key of the seeds' str() forms fixes every row.  Rows are
    drawn only for a table not kept at a long enough horizon; a kept one
    is sliced.  Kept tables hold at most `cells` doubles in all.  A table
    above that is never kept: it comes as blocks of at most
    max(1, cells // horizon) rows, each built when the previous one has
    been scored.
    """

    def __init__(self, cells: int):
        self.cells = cells
        self.held = 0
        self.tables: OrderedDict = OrderedDict()

    def blocks(self, stream: str, seeds, horizon: int, derive):
        seeds = tuple(seeds)
        key = (stream, tuple(map(str, seeds)))
        table = self.tables.get(key)
        if table is not None and table.shape[1] >= horizon:
            self.tables.move_to_end(key)
            return [table[:, :horizon]]
        if len(seeds) * horizon > self.cells:
            rows = max(1, self.cells // horizon)
            return (
                _coin_rows(stream, seeds[i : i + rows], horizon, derive)
                for i in range(0, len(seeds), rows)
            )
        if table is not None:
            self.held -= self.tables.pop(key).size
        table = _coin_rows(stream, seeds, horizon, derive)
        table.flags.writeable = False
        self.tables[key] = table
        self.held += table.size
        while self.held > self.cells:
            self.held -= self.tables.popitem(last=False)[1].size
        return [table]


def _coin_rows(stream: str, seeds, horizon: int, derive):
    table = np.empty((len(seeds), horizon))
    for row, seed in zip(table, seeds):
        derive(seed, stream).random(out=row)
    return table


# 8 MiB of doubles: about 26 of the benchmark's largest tables (200 seeds
# by 199 rounds), and far more of the acceptance suite's
COIN_TABLES = CoinTables(cells=1 << 20)


def expected_mistakes(probabilities, labels) -> float:
    """Exact expected mistakes of the forecaster: the sum over rounds of
    p_t on label 0 and 1 - p_t on label 1, for 0/1 labels, correctly
    rounded (builtin sum is compensated only from Python 3.12 on)."""
    return math.fsum(1.0 - p if y else p for p, y in zip(probabilities, labels))


def seeded_mistakes(probabilities, labels, coins, offset: int = 0) -> dict:
    """Mistakes of the forecaster under each seed's coins, summarized.

    coins is an iterable of row blocks of a (seeds, horizon) table of
    uniforms, as CoinTables.blocks gives; seed i's round t predicts 1 when
    row i's t-th uniform is below probabilities[t], and every block is
    scored in one array expression.  values holds each seed's mistakes
    minus offset; mean, std (ddof 1) and stderr summarize them, the last
    two being 0.0 for a single seed.
    """
    probs = np.asarray(probabilities)
    mistakes = [((block < probs) != labels).sum(axis=1) for block in coins]
    if not any(len(m) for m in mistakes):
        raise DomainError("need at least one seed")
    values = np.concatenate(mistakes).astype(float) - offset
    std = float(values.std(ddof=1)) if len(values) > 1 else 0.0
    return {
        "mean": float(values.mean()),
        "std": std,
        "stderr": std / math.sqrt(len(values)),
        "values": values.tolist(),
    }


def decay_factor(rate: float) -> float:
    """exp(-rate), an erring weight's factor; ValueError unless it is in
    (0, 1), as for nan, 0, a negative rate or one that underflows it to 0."""
    decay = math.exp(-max(rate, 0.0))  # max keeps a nan, and exp from overflowing
    if not 0.0 < decay < 1.0:
        raise ValueError(f"need exp(-rate) in (0, 1), got rate {rate!r}")
    return decay


def weight_trajectory(prediction_matrix, loss_matrix, rate: float) -> list[float]:
    """Per-round probabilities of predicting 1, as a fresh forecaster fed
    the 0/1 rows (one per expert, lists or arrays) column by column gives
    them.  No experts, other shapes or entries, or a rate decay_factor
    refuses raise ValueError."""
    rows = (*prediction_matrix, *loss_matrix)
    decay = decay_factor(rate)
    if not rows or len(prediction_matrix) != len(loss_matrix) or len(set(map(len, rows))) > 1:
        raise ValueError("need one prediction and one loss row of one length per expert")
    if not set().union(*rows) <= {0, 1}:
        raise ValueError("predictions and losses must be 0 or 1")
    w, probs = [1.0] * len(prediction_matrix), []
    for votes, errs in zip(zip(*prediction_matrix), zip(*loss_matrix)):
        total = ones = 0.0
        for x, v in zip(w, votes):
            total += x
            if v:
                ones += x
        probs.append(ones / total)
        if 1 in errs:  # else the weights stay as they are, their maximum 1.0
            w = [x * decay if e else x for x, e in zip(w, errs)]
            top = max(w)
            w = [x / top for x in w]
    return probs
