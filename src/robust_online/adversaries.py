"""Adversaries: optimal tree strategies, scripted replays, generators.

A shattered tree of depth d is a complete playbook for forcing d mistakes:
play the current node, punish whatever the learner predicts by revealing
the other side, and descend along the revealed edge.  Realizability is
maintained by construction, because every root-to-node path of a shattered
tree is realizable.

The realizable generators pick a hypothesis and draw rounds that cost it
nothing.  Each (class, map) keeps, per game, one choice table: the mask
of hypotheses each choice code costs nothing, and every hypothesis's
playable codes, filled on first use (RobustChoices, OrientationChoices).
So a call draws from a ready list and builds round objects only for the
rounds it returns.  The draws are exactly those of a plain loop that
lists the choices and makes one scalar rng.integers call per choice, so
a seed gives the same rounds and leaves its generator at the same
position.  The orientation generator draws a sequence's option
indices as one block of bounded integers; the robust generator, whose z
bound depends on the anchor drawn, decodes both draws of every round
from blocks of raw 32-bit words (seeding.BoundedDraws).
"""

import numpy as np

from .dimension import AdversarialTree
from .learners import OrientationQuery
from .model import HypothesisClass, PerturbationMap, compiled, consistency_masks, game_nodes
from .seeding import BoundedDraws


def _punished_side(node, prediction: int) -> int:
    """Side whose reveal makes the prediction wrong (side 0 if neither label
    was predicted, which is a mistake either way)."""
    if prediction == node.labels[0]:
        return 1
    return 0


class OrientationTreeAdversary:
    """Descends a shattered tree in the orientation game."""

    protocol = "orientation"

    def __init__(self, tree: AdversarialTree):
        self.node = tree.root

    def query(self) -> OrientationQuery | None:
        if self.node is None:
            return None
        return OrientationQuery(self.node.pair, self.node.labels)

    def reveal(self, prediction: int) -> int:
        node = self.node
        side = _punished_side(node, prediction)
        self.node = node.child(side)
        return side


class RobustTreeAdversary:
    """Descends a shattered tree in the robust game.

    The perturbed input of a node is the smallest instance id common to
    both sides' perturbation sets (nonempty by the node invariant).
    """

    protocol = "robust"

    def __init__(self, tree: AdversarialTree, u: PerturbationMap):
        self.node = tree.root
        self.u = u

    def emit(self) -> int | None:
        if self.node is None:
            return None
        x0, x1 = self.node.pair
        return min(self.u.forward[x0] & self.u.forward[x1])

    def reveal(self, prediction: int) -> tuple[int, int]:
        node = self.node
        side = _punished_side(node, prediction)
        self.node = node.child(side)
        return node.pair[side], node.labels[side]


def tree_adversary(protocol: str, tree: AdversarialTree, u: PerturbationMap):
    """The tree adversary of one game protocol."""
    if protocol == "robust":
        return RobustTreeAdversary(tree, u)
    return OrientationTreeAdversary(tree)


class ScriptedRobustAdversary:
    """Plays a fixed list of (z, clean_x, clean_y) rounds, ignoring predictions."""

    protocol = "robust"

    def __init__(self, rounds):
        self.rounds = list(rounds)
        self.t = 0

    def emit(self) -> int | None:
        if self.t >= len(self.rounds):
            return None
        return self.rounds[self.t][0]

    def reveal(self, prediction: int) -> tuple[int, int]:
        _, x, y = self.rounds[self.t]
        self.t += 1
        return x, y


class ScriptedOrientationAdversary:
    """Plays a fixed list of (query, side) rounds, ignoring predictions."""

    protocol = "orientation"

    def __init__(self, rounds):
        self.rounds = list(rounds)
        self.t = 0

    def query(self) -> OrientationQuery | None:
        if self.t >= len(self.rounds):
            return None
        return self.rounds[self.t][0]

    def reveal(self, prediction: int) -> int:
        _, side = self.rounds[self.t]
        self.t += 1
        return side


class _Choices:
    """Integer codes of each hypothesis's playable choices in one game.

    masks[c] holds the hypotheses for which choice code c costs nothing.
    A hypothesis's codes are found on first use and kept, in increasing
    order.
    """

    def __init__(self, size: int, masks: tuple[int, ...]):
        self.masks = masks
        self._codes: list[tuple[int, ...] | None] = [None] * size

    def codes(self, h: int) -> tuple[int, ...]:
        """Codes of the choices that cost hypothesis id h nothing."""
        found = self._codes[h]
        if found is None:
            found = self._codes[h] = tuple(c for c, m in enumerate(self.masks) if m >> h & 1)
        return found

    def first_playable(self, rng) -> tuple[int, ...]:
        """codes(h) of the first hypothesis, in a random order, that has any.

        Returns () when no hypothesis has playable choices.  Shuffling an
        arange makes the same Fisher-Yates swaps from the same bounded
        draws as shuffling a list of the ids, at a fraction of the cost on
        large classes.  Its ids are read lazily, since the walk mostly
        stops at the first one.
        """
        ids = np.arange(len(self._codes))
        rng.shuffle(ids)
        for h in map(int, ids):
            found = self.codes(h)
            if found:
                return found
        return ()


class RobustChoices(_Choices):
    """Clean pairs (x, y), coded x * L + y for L labels.

    A pair is playable for h when U(x) is nonempty (the adversary must
    present some perturbation of x) and h labels all of U(x) with y, so
    its mask is consistency_masks[x][y], or 0 where U(x) is empty.  Got
    through compiled(hc, u, RobustChoices).  perturbations[x] is U(x)
    sorted.
    """

    def __init__(self, hc: HypothesisClass, u: PerturbationMap):
        self.perturbations = tuple(tuple(sorted(s)) for s in u.forward)
        masks = consistency_masks(hc, u)
        super().__init__(
            hc.size,
            tuple(m if zs else 0 for zs, row in zip(self.perturbations, masks) for m in row),
        )


class _Queries(dict):
    """The OrientationQuery of each node index, built on first use."""

    __slots__ = ("nodes",)

    def __init__(self, nodes):
        super().__init__()
        self.nodes = nodes

    def __missing__(self, node: int) -> OrientationQuery:
        pair, labels, _, _ = self.nodes[node]
        query = self[node] = OrientationQuery(pair, labels)
        return query


class OrientationChoices(_Choices):
    """Orientation options, coded 2 * node + side.

    node indexes game_nodes(hc, u, multiclass), whose side masks are
    masks[2 * node] and masks[2 * node + 1], and queries[node] is its
    query, built once per table; code c is the option
    (queries[c >> 1], c & 1).  Got through
    compiled(hc, u, OrientationChoices, multiclass).
    """

    def __init__(self, hc: HypothesisClass, u: PerturbationMap, multiclass: bool):
        nodes = game_nodes(hc, u, multiclass)
        super().__init__(hc.size, tuple(m for _, _, m0, m1 in nodes for m in (m0, m1)))
        self.queries = _Queries(nodes)


def realizable_robust_rounds(
    hc: HypothesisClass, u: PerturbationMap, length: int, rng
) -> list[tuple[int, int, int]]:
    """Random (z, x, y) rounds realizable by one hypothesis.

    The hypothesis is picked at random among those with playable anchors:
    the first of a shuffled id list that has any.  Each round draws an
    anchor of that hypothesis, then z from U(x).  Returns [] when no
    hypothesis has any playable anchor.

    The draws are those of a plain loop over the anchors: one shuffle
    of the hypothesis ids, then one rng.integers(k) per choice among k.
    A choice with k = 1 (a hypothesis with one anchor, or a singleton
    U(x)) draws nothing, because rng.integers(1) returns 0 without
    consuming any bits.  The bounded draws are decoded from blocks of
    32-bit words that hold only the words the loop is certain to read
    (seeding.BoundedDraws): one per round left for the anchor when k > 1,
    and one more for z when every anchor's U(x) has two or more
    elements.  So the rounds and the stream's position afterwards are
    the loop's.
    """
    table = compiled(hc, u, RobustChoices)
    codes = table.first_playable(rng)
    if not codes:
        return []
    labels, zs, k = hc.label_count, table.perturbations, len(codes)
    per_round = (k > 1) + all(len(zs[c // labels]) > 1 for c in codes)
    draw = BoundedDraws(rng).integer
    rounds = []
    for left in range(length, 0, -1):
        x, y = divmod(codes[draw(k, per_round * left)] if k > 1 else codes[0], labels)
        ux = zs[x]
        z = ux[draw(len(ux), per_round * (left - 1) + 1)] if len(ux) > 1 else ux[0]
        rounds.append((z, x, y))
    return rounds


def realizable_orientation_rounds(
    hc: HypothesisClass,
    u: PerturbationMap,
    length: int,
    rng,
    multiclass: bool = False,
) -> list[tuple[OrientationQuery, int]]:
    """Random orientation rounds whose revealed sides one hypothesis realizes.

    The hypothesis is picked at random among those with playable options,
    as in realizable_robust_rounds.  Returns [] when no hypothesis has any.

    All of a sequence's option indices come from one
    rng.integers(k, size=length) call, which returns the values, and
    leaves the stream at the position, of length scalar rng.integers(k)
    calls (the block rule in `seeding`).  The rounds share the table's
    queries, each built the first time it is drawn.
    """
    table = compiled(hc, u, OrientationChoices, multiclass)
    codes = table.first_playable(rng)
    if not codes:
        return []
    queries, drawn = table.queries, rng.integers(len(codes), size=length).tolist()
    return [(queries[c >> 1], c & 1) for c in map(codes.__getitem__, drawn)]


def corrupt_labels(rounds, corruptions: int, label_count: int, rng):
    """Flip the clean label on `corruptions` distinct robust rounds."""
    rounds = list(rounds)
    if corruptions == 0 or not rounds:
        return rounds
    idx = rng.choice(len(rounds), size=min(corruptions, len(rounds)), replace=False)
    for i in sorted(int(j) for j in idx):
        z, x, y = rounds[i]
        others = [c for c in range(label_count) if c != y]
        rounds[i] = (z, x, others[int(rng.integers(len(others)))])
    return rounds
