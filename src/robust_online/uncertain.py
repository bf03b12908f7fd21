"""Learning when the perturbation map is only known to lie in a finite family.

Two learners, both driving one expert per family member, where an expert
runs the robust reduction learner under the assumption that its member is
the true map:

* aggregation by exponentially weighted forecaster in the known-loss-budget
  regime, with budget max over members of the adversarial dimension (a
  budget of 0 is tuned for and bounded as 1, see forecaster);
* deterministic phased halving: majority vote of the alive experts, erring
  experts removed every round, all experts revived when none are left.
  It makes at most d * (floor(log2 |G|) + 1) + floor(log2 |G|) mistakes,
  d being the true member's adversarial dimension (see halving_bound).
  The extra mistake per phase cannot be avoided by any learner that
  restarts only once every member has erred: an adversary that splits the
  alive pool evenly and labels against the vote forces it.

Every expert sees every reveal, dead or alive, so both learners read one
replay of the experts over the fixed sequence, each a state id stepped on
its member's LearnerContext: halving takes its votes from the prediction
matrix, family_expected_mistakes sums the forecaster trajectory's exact
expected mistakes, and mc_family_mistakes adds each forecaster seed's
mistakes, scored with the seeds' cached coin table.

Experts run tolerantly.  Under a wrong assumed map the shown input can sit
outside the assumed perturbation set of the revealed instance, reveals can
empty the version space, and mistake rounds can lack an oriented
counterpart; a wrong-map expert just keeps predicting, 1 once its version
space is empty, which is absorbing.
"""

from dataclasses import dataclass

import numpy as np

from .dimension import adversarial_dimension
from .errors import DomainError
from .forecaster import (
    COIN_TABLES,
    expected_mistakes,
    loss_budget_rate,
    seeded_mistakes,
    small_loss_bound,
    weight_trajectory,
)
from .learners import binary_context
from .model import HypothesisClass, PerturbationMap, surviving_mask
from .seeding import derive_rng


@dataclass(frozen=True)
class PerturbationFamily:
    """Finite candidate set of perturbation maps with a hidden true member.

    truth_index is harness bookkeeping for generating sequences and
    computing reference bounds; the learners in this module never read it.
    """

    members: tuple[PerturbationMap, ...]
    truth_index: int = 0

    def __post_init__(self):
        if not self.members:
            raise DomainError("a perturbation family needs at least one member")
        widths = {len(u.forward) for u in self.members}
        if len(widths) != 1:
            raise DomainError(f"family members disagree on instance count: {widths}")
        if not 0 <= self.truth_index < len(self.members):
            raise DomainError(
                f"truth_index {self.truth_index} out of range for "
                f"{len(self.members)} members"
            )

    @property
    def truth(self) -> PerturbationMap:
        return self.members[self.truth_index]

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


def _replay(hc: HypothesisClass, members, rounds):
    """(predictions, losses) 0/1 arrays of shape (members, rounds): each
    member's tolerant expert, a state id on its binary context, predicts
    on the shown input and steps on the reveal."""
    if not rounds:
        raise DomainError("need at least one round")
    rows = []
    for u in members:
        ctx, s, row = binary_context(hc, u), 0, []
        for z, x, y in rounds:
            row.append(ctx.predict(s, z))
            s = ctx.step(s, z, x, y)
        rows.append(row)
    preds = np.array(rows, dtype=np.int8)
    labels = np.array([y for _, _, y in rounds], dtype=np.int8)
    return preds, (preds != labels[None, :]).astype(np.int8)


def family_loss_budget(hc: HypothesisClass, family: PerturbationFamily) -> int:
    """Largest adversarial dimension across the family.

    Whichever member is true, its expert loses at most this much on a
    realizable sequence, so the budget is safe to hand the forecaster.
    """
    return max(adversarial_dimension(hc, u) for u in family.members)


def sequence_realizable(hc: HypothesisClass, members, rounds) -> bool:
    """True when some member explains the whole sequence.

    A member explains it when every shown input lies in its perturbation
    set of the revealed instance and some hypothesis has zero adversarial
    loss on every revealed pair.
    """
    rounds = list(rounds)
    pairs = [(x, y) for _, x, y in rounds]
    for u in members:
        if all(z in u.forward[x] for z, x, _ in rounds) and surviving_mask(
            pairs, hc, u
        ):
            return True
    return False


def family_expected_mistakes(
    hc: HypothesisClass, family: PerturbationFamily, rounds, budget=None
) -> dict:
    """Exact expected mistakes of the aggregated family learner, with its
    small-loss bound.

    The experts are replayed once and the forecaster runs at the loss-budget
    rate for the family size; budget defaults to family_loss_budget.
    """
    rounds = list(rounds)
    preds, losses = _replay(hc, family.members, rounds)
    if budget is None:
        budget = family_loss_budget(hc, family)
    probs = weight_trajectory(preds, losses, loss_budget_rate(len(family), budget)).tolist()
    return {
        "expected": expected_mistakes(probs, [y for _, _, y in rounds]),
        "budget": budget,
        "bound": small_loss_bound(len(family), budget),
        "best_expert": int(losses.sum(axis=1).min()),
        "realizable": sequence_realizable(hc, family.members, rounds),
        "probabilities": probs,
    }


def mc_family_mistakes(
    hc: HypothesisClass, family: PerturbationFamily, rounds, seeds, budget=None
) -> dict:
    """family_expected_mistakes plus the mistakes of each forecaster seed,
    summarized as seeded_mistakes does; a one-seed run is seeds=[seed]."""
    rounds = list(rounds)
    exact = family_expected_mistakes(hc, family, rounds, budget)
    labels = np.array([y for _, _, y in rounds])
    coins = COIN_TABLES.blocks("family-ewa", seeds, len(rounds), derive_rng)
    return {**exact, **seeded_mistakes(exact["probabilities"], labels, coins)}


@dataclass
class HalvingReport:
    mistakes: int
    phase_mistakes: list[int]
    completed_phases: int
    expert_mistakes: list[int]
    alive_count: int


def halving_bound(hc: HypothesisClass, family: PerturbationFamily) -> int:
    """Mistake bound d * (f + 1) + f of phased halving.

    Here f = floor(log2 |G|) and d is the adversarial dimension of the
    true member.  The bound follows in three steps:

    * every vote mistake at least halves the alive pool, so a completed
      phase costs at most f + 1 mistakes (f shrink the pool to one member,
      whose own mistake empties it) and the open final phase at most f;
    * the true member's expert is alive at the start of every phase, so
      each completed phase includes one of its mistakes; it carries its
      state across phases and errs at most d times in all, so at most d
      phases complete;
    * together, d * (f + 1) + f.

    A single-member family gives d.
    """
    f = len(family).bit_length() - 1
    dim = binary_context(hc, family.truth).engine.dimension()
    return dim * (f + 1) + f


def family_halving_run(
    hc: HypothesisClass, family: PerturbationFamily, rounds
) -> HalvingReport:
    """Deterministic phased halving over the family experts.

    Each round the majority label of the alive experts is predicted (ties
    go to 1), then every expert that mispredicted is dropped from the
    alive set; when it empties, the next round starts a fresh phase with
    all members alive.  Experts keep their state across phases and see
    every reveal, dead or alive, so the votes are read from one replay.

    A completed phase costs at most floor(log2 |G|) + 1 mistakes, the open
    final phase at most floor(log2 |G|), and each completed phase spends
    one mistake of the true member's expert, so halving_bound holds.
    """
    rounds = list(rounds)
    preds, losses = _replay(hc, family.members, rounds)
    alive = np.ones(len(family), dtype=bool)
    phase_mistakes = [0]
    for t, (_, _, y) in enumerate(rounds):
        ones = int(preds[alive, t].sum())
        guess = int(2 * ones >= alive.sum())
        phase_mistakes[-1] += int(guess != y)
        alive &= losses[:, t] == 0
        if not alive.any():
            alive[:] = True
            phase_mistakes.append(0)
    return HalvingReport(
        mistakes=sum(phase_mistakes),
        phase_mistakes=phase_mistakes,
        completed_phases=len(phase_mistakes) - 1,
        expert_mistakes=losses.sum(axis=1).tolist(),
        alive_count=int(alive.sum()),
    )
