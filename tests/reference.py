"""Definitional references the tests check the package against.

The package computes the robust loss only through its consistency masks
(`model.consistency_masks`).  The per-hypothesis definition of that loss
and the helpers the tests build around it live here, outside the
package, so the package keeps one source of the robust loss.
"""

from robust_online import Hypothesis, PerturbationMap
from robust_online.errors import DomainError
from robust_online.model import surviving_mask


def empty_map(n: int) -> PerturbationMap:
    return PerturbationMap.from_sets([set()] * n)


def adversarial_loss(h: Hypothesis, x: int, y: int, u: PerturbationMap) -> int:
    """1 if some admissible perturbation of x gets a label other than y.

    The supremum over an empty perturbation set is 0: an instance that
    cannot be presented at all can never be misclassified.
    """
    if not 0 <= x < u.instance_count:
        raise DomainError(f"instance id {x} outside [0, {u.instance_count})")
    if not 0 <= y < h.label_count:
        raise DomainError(f"label id {y} outside [0, {h.label_count})")
    if len(h.table) != u.instance_count:
        raise DomainError("hypothesis and perturbation map cover different spaces")
    return int(any(h.table[z] != y for z in u.forward[x]))


def is_realizable_sequence(pairs, hc, u: PerturbationMap) -> bool:
    """True iff one hypothesis has zero adversarial loss on the whole sequence."""
    return surviving_mask(pairs, hc, u) != 0
