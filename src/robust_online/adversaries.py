"""Adversaries: optimal tree strategies, scripted replays, generators.

A shattered tree of depth d is a complete playbook for forcing d mistakes:
play the current node, punish whatever the learner predicts by revealing
the other side, and descend along the revealed edge.  Realizability is
maintained by construction, because every root-to-node path of a shattered
tree is realizable.

The realizable generators pick a hypothesis and draw rounds that cost it
nothing.  Each (class, map) keeps, per game, one choice table: every
hypothesis's playable codes, read off its Game's masks or nodes
(model.Game) on first use (RobustChoices, OrientationChoices).
So a call draws from a ready list and builds round objects only for the
rounds it returns.  The draws are exactly those of a plain loop that
lists the choices and makes one scalar rng.integers call per choice, so
a seed gives the same rounds and leaves its generator at the same
position.  The orientation generator draws a sequence's option
indices as one block of bounded integers; the robust generator, whose z
bound depends on the anchor drawn, decodes both draws of every round
from blocks of raw 32-bit words (seeding.BoundedDraws).
"""

from itertools import chain

from .dimension import AdversarialTree
from .learners import OrientationQuery
from .model import HypothesisClass, PerturbationMap, check_label_mode, compiled
from .model import consistency_masks, game
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
    """Integer codes of each hypothesis's playable choices in one game:
    a subclass's _find(h) reads them off its masks or nodes, in
    increasing order, on first use, and codes(h) keeps them."""

    def __init__(self, size: int):
        self._codes: list[tuple[int, ...] | None] = [None] * size

    def codes(self, h: int) -> tuple[int, ...]:
        """Codes of the choices that cost hypothesis id h nothing."""
        found = self._codes[h]
        if found is None:
            found = self._codes[h] = self._find(h)
        return found

    def first_playable(self, rng) -> tuple[int, ...]:
        """codes(h) of the first hypothesis, in a random order, that has any.

        Returns () when no hypothesis has playable choices.
        rng.permutation(n) shuffles an arange, making the same Fisher-Yates
        swaps from the same bounded draws as shuffling a list of the ids,
        at a fraction of the cost on large classes.  Its ids are read
        lazily, since the walk mostly stops at the first one.
        """
        for h in map(int, rng.permutation(len(self._codes))):
            found = self.codes(h)
            if found:
                return found
        return ()


class RobustChoices(_Choices):
    """Clean pairs (x, y), coded x * L + y for L labels.

    A pair is playable for h when U(x) is nonempty (the adversary must
    present some perturbation of x) and h labels all of U(x) with y, that
    is, when h is in consistency_masks[x][y].  Got through
    compiled(hc, u, RobustChoices).  perturbations[x] is U(x) sorted.
    """

    def __init__(self, hc: HypothesisClass, u: PerturbationMap):
        super().__init__(hc.size)
        self.perturbations = tuple(tuple(sorted(s)) for s in u.forward)
        self._masks = consistency_masks(hc, u)

    def _find(self, h: int) -> tuple[int, ...]:
        zs, labels = self.perturbations, len(self._masks[0])
        masks = chain.from_iterable(self._masks)
        return tuple(c for c, m in enumerate(masks) if m >> h & 1 and zs[c // labels])


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

    node indexes game(hc, u).nodes, whose side i keeps the hypotheses
    for which option (node, i) is playable, and queries[node] is its
    query, built once per table; code c is the option
    (queries[c >> 1], c & 1).  Got through
    compiled(hc, u, OrientationChoices).
    """

    def __init__(self, hc: HypothesisClass, u: PerturbationMap):
        super().__init__(hc.size)
        self.queries = _Queries(game(hc, u).nodes)

    def _find(self, h: int) -> tuple[int, ...]:
        nodes = self.queries.nodes  # side i of a node keeps its entry 2 + i
        return tuple(c for c in range(2 * len(nodes)) if nodes[c >> 1][2 + (c & 1)] >> h & 1)


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
    multiclass=None,
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
    check_label_mode(hc, multiclass)
    table = compiled(hc, u, OrientationChoices)
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
