"""Adversaries: optimal tree strategies, scripted replays, generators.

A shattered tree of depth d is a complete playbook for forcing d mistakes:
play the current node, punish whatever the learner predicts by revealing
the other side, and descend along the revealed edge.  Realizability is
maintained by construction, because every root-to-node path of a shattered
tree is realizable.
"""

from .dimension import AdversarialTree
from .learners import OrientationQuery
from .model import HypothesisClass, PerturbationMap, consistency_masks, game_nodes


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


def robust_anchors(hc: HypothesisClass, u: PerturbationMap, h) -> list[tuple[int, int]]:
    """Clean pairs (x, y) that cost h nothing and can actually be played.

    Playable means U(x) is nonempty (the adversary must present some
    perturbation of x) and h labels all of U(x) with the single y.
    """
    masks = consistency_masks(hc, u)
    return [
        (x, y)
        for x in range(u.instance_count)
        if u.forward[x]
        for y in range(hc.label_count)
        if masks[x][y] >> h.id & 1
    ]


def _first_playable(hc: HypothesisClass, rng, options) -> list:
    """options(h) of the first hypothesis, in a random order, that has any.

    Returns [] when no hypothesis has playable options.
    """
    order = list(range(hc.size))
    rng.shuffle(order)
    for i in order:
        found = options(hc[i])
        if found:
            return found
    return []


def realizable_robust_rounds(
    hc: HypothesisClass, u: PerturbationMap, length: int, rng
) -> list[tuple[int, int, int]]:
    """Random (z, x, y) rounds realizable by one hypothesis.

    The hypothesis is picked at random among those with playable anchors.
    Returns [] when no hypothesis has any playable anchor.
    """
    anchors = _first_playable(hc, rng, lambda h: robust_anchors(hc, u, h))
    if not anchors:
        return []
    rounds = []
    for _ in range(length):
        x, y = anchors[int(rng.integers(len(anchors)))]
        zs = sorted(u.forward[x])
        rounds.append((zs[int(rng.integers(len(zs)))], x, y))
    return rounds


def orientation_options(
    hc: HypothesisClass, u: PerturbationMap, h, multiclass: bool = False
) -> list[tuple[OrientationQuery, int]]:
    """(query, side) choices whose reveal costs h nothing."""
    return [
        (OrientationQuery(pair, labels), side)
        for pair, labels, m0, m1 in game_nodes(hc, u, multiclass)
        for side, m in enumerate((m0, m1))
        if m >> h.id & 1
    ]


def realizable_orientation_rounds(
    hc: HypothesisClass,
    u: PerturbationMap,
    length: int,
    rng,
    multiclass: bool = False,
) -> list[tuple[OrientationQuery, int]]:
    """Random orientation rounds whose revealed sides one hypothesis realizes.

    The hypothesis is picked at random among those with playable options.
    Returns [] when no hypothesis has any.
    """
    options = _first_playable(
        hc, rng, lambda h: orientation_options(hc, u, h, multiclass)
    )
    if not options:
        return []
    return [options[int(rng.integers(len(options)))] for _ in range(length)]


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
