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
0/1 prediction and loss matrices; weight_trajectory turns the matrices
into the per-round probabilities; and seeded_mistakes scores every
seed's coins against them in one array expression.  The subset experts
(agnostic) have no matrices: their pool computes the probabilities by
groups and shares only the scoring.  A
seed's coins depend only on its (seed, stream) generator, never on the
scenario, so COIN_TABLES builds each (stream, seeds) table of uniforms
once per process and keeps it in an LRU bounded by a fixed number of
cells.  Row i holds the first draws of the i-th seed's generator:
random(T) is a prefix of random(T') for T' > T, so a kept table answers
any shorter horizon, and a one-seed run is the same computation as a
Monte-Carlo one.  A table too big to keep is built and scored in row
blocks, so an estimate's memory does not grow with its seed count.  The
tests keep a stepwise forecaster as the reference for these steps.
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


def weight_trajectory(prediction_matrix, loss_matrix, rate: float):
    """Per-round probabilities of predicting 1, for vectorized replays.

    prediction_matrix and loss_matrix are (n_experts, horizon) 0/1 arrays;
    the returned vector matches a fresh forecaster fed column by column.
    """
    preds = np.asarray(prediction_matrix, dtype=float)
    losses = np.asarray(loss_matrix, dtype=float)
    n, horizon = preds.shape
    w = np.ones(n)
    probs = np.empty(horizon)
    for t in range(horizon):
        probs[t] = w @ preds[:, t] / w.sum()
        w = w * np.exp(-rate * losses[:, t])
        w /= w.max()
    return probs
