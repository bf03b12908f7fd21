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
coin flips, so a run is replayed in three steps shared by every learner
that aggregates experts: expert_matrices drives the pool over the fixed
sequence once, weight_trajectory turns the matrices into the per-round
probabilities, and seeded_mistakes draws the coins of each seed.  Drawing
all T coins of a seed at once gives the same PCG64 stream as T single
draws, so a one-seed run is the same computation as a Monte-Carlo one.
ExponentialWeightsForecaster is the stepwise reference for these steps.
"""

import math

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


class ExponentialWeightsForecaster:
    def __init__(self, n_experts: int, rate: float):
        if n_experts < 1:
            raise ValueError("need at least one expert")
        if rate <= 0:
            raise ValueError("the learning rate must be positive")
        self.rate = rate
        self.weights = np.ones(n_experts)

    def probability(self, predictions) -> float:
        """Probability of predicting 1 given the experts' 0/1 votes."""
        preds = np.asarray(predictions, dtype=float)
        return float(self.weights @ preds / self.weights.sum())

    def predict(self, predictions, rng) -> int:
        return int(rng.random() < self.probability(predictions))

    def update(self, losses) -> None:
        self.weights = self.weights * np.exp(
            -self.rate * np.asarray(losses, dtype=float)
        )
        self.weights /= self.weights.max()


def expert_matrices(experts, rounds):
    """(predictions, losses) 0/1 arrays of shape (n_experts, horizon).

    Every round each robust-game expert is asked predict(z), then shown
    update(z, x, y).
    """
    rounds = list(rounds)
    if not rounds:
        raise DomainError("need at least one round")
    preds = np.zeros((len(experts), len(rounds)), dtype=np.int8)
    for t, (z, x, y) in enumerate(rounds):
        for i, e in enumerate(experts):
            preds[i, t] = e.predict(z)
        for e in experts:
            e.update(z, x, y)
    labels = np.array([y for _, _, y in rounds], dtype=np.int8)
    return preds, (preds != labels[None, :]).astype(np.int8)


def seeded_mistakes(probabilities, labels, rngs, offset: int = 0) -> dict:
    """Mistakes of the forecaster under each generator's coins, summarized.

    Round t predicts 1 when the generator's t-th uniform draw is below
    probabilities[t].  values holds each generator's mistakes minus
    offset; mean, std (ddof 1) and stderr summarize them, the last two
    being 0.0 for a single generator.  rngs may be a lazy iterable; it is
    consumed one generator at a time, so each can be freed after its draw.
    """
    probs = np.asarray(probabilities)
    mistakes = [int(((rng.random(len(probs)) < probs) != labels).sum()) for rng in rngs]
    if not mistakes:
        raise DomainError("need at least one seed")
    values = np.array(mistakes, dtype=float) - offset
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
