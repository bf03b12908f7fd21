"""Adversarial dimension of a hypothesis class under a perturbation map.

The dimension is the maximum depth of a full binary tree whose nodes are
instance pairs with intersecting perturbation sets (plus a distinct label
pair in the multiclass variant) such that every root-to-node path is
realizable.  It is computed by a memoized recursion over version-space
bitmasks:

    dim(V) = 1 + max over candidate nodes of min(dim(V0), dim(V1))

where V0, V1 are the two child restrictions and a candidate requires both
to be nonempty.  Because the perturbation sets of a node intersect, V0 and
V1 are disjoint, hence both strictly smaller than V: the recursion
terminates without any assumed depth bound, and the dimension of a class
of size m never exceeds floor(log2 m).
"""

from dataclasses import dataclass

from .errors import DomainError, TreeStructureError
from .model import (
    HypothesisClass,
    PerturbationMap,
    VersionSpace,
    compiled,
    game_nodes,
    restrict,
)

EMPTY_DIM = -1  # sentinel dimension of the empty version space


@dataclass(frozen=True)
class AtLeast:
    """Returned when the dimension exceeds a caller-supplied depth cap.

    The cap does not shorten the search: the full dimension is always
    computed, and the cap only hides the value above it.
    """

    bound: int

    def __str__(self):
        return f">={self.bound}"


@dataclass(frozen=True)
class AdversarialTreeNode:
    """One tree node: a compatible instance pair and its two edge labels.

    Edge i reveals (pair[i], labels[i]).  Children may be None at the
    deepest level.
    """

    pair: tuple[int, int]
    labels: tuple[int, int] = (0, 1)
    zero_child: "AdversarialTreeNode | None" = None
    one_child: "AdversarialTreeNode | None" = None

    def child(self, i: int) -> "AdversarialTreeNode | None":
        return self.zero_child if i == 0 else self.one_child


@dataclass(frozen=True)
class AdversarialTree:
    """A full binary tree of a declared depth; depth 0 has no root."""

    root: AdversarialTreeNode | None
    depth: int


class DimensionEngine:
    """Shared search state for one (class, map, label mode) triple.

    Holds the candidate node list and a bitmask-keyed memo table, so the
    online learners can ask for dimensions of thousands of version spaces
    at amortized dictionary-lookup cost.
    """

    def __init__(self, hc: HypothesisClass, u: PerturbationMap, multiclass: bool = False):
        if hc.instance_count != u.instance_count:
            raise DomainError("hypothesis class and perturbation map cover different spaces")
        if not multiclass and hc.label_count != 2:
            raise DomainError("binary mode requires exactly two labels")
        self.hc = hc
        self.u = u
        self.multiclass = multiclass
        self.full_mask = (1 << hc.size) - 1
        self.nodes = game_nodes(hc, u, multiclass)
        self._memo: dict[int, int] = {0: EMPTY_DIM}

    def dimension_of_mask(self, mask: int) -> int:
        memo = self._memo
        hit = memo.get(mask)
        if hit is not None:
            return hit
        best = 0
        for _, _, m0, m1 in self.nodes:
            v0 = mask & m0
            if not v0:
                continue
            v1 = mask & m1
            if not v1:
                continue
            d = self.dimension_of_mask(v0)
            d1 = self.dimension_of_mask(v1)
            if d1 < d:
                d = d1
            if d + 1 > best:
                best = d + 1
        memo[mask] = best
        return best

    def dimension(self) -> int:
        return self.dimension_of_mask(self.full_mask)

    def witness_from_mask(self, mask: int, depth: int) -> AdversarialTreeNode | None:
        """First (lexicographic) node whose children support depth-1 more."""
        if depth == 0:
            return None
        for pair, labels, m0, m1 in self.nodes:
            v0 = mask & m0
            v1 = mask & m1
            if not v0 or not v1:
                continue
            if min(self.dimension_of_mask(v0), self.dimension_of_mask(v1)) >= depth - 1:
                return AdversarialTreeNode(
                    pair,
                    labels,
                    self.witness_from_mask(v0, depth - 1),
                    self.witness_from_mask(v1, depth - 1),
                )
        raise AssertionError("no witness node at a depth the search just certified")


def get_engine(hc: HypothesisClass, u: PerturbationMap, multiclass: bool = False) -> DimensionEngine:
    return compiled(hc, u, DimensionEngine, multiclass)


def adversarial_dimension(
    hc: HypothesisClass,
    u: PerturbationMap,
    multiclass: bool = False,
    depth_cap: int | None = None,
):
    """Exact adversarial dimension, or AtLeast(depth_cap) when capped.

    The default cap |hc| can never bind (the dimension is at most
    log2 |hc|), so plain int is the usual return type.
    """
    cap = hc.size if depth_cap is None else depth_cap
    if cap < 0:
        raise DomainError("depth cap must be nonnegative")
    d = get_engine(hc, u, multiclass).dimension()
    if d > cap:
        return AtLeast(cap)
    return d


def dimension_of(v: VersionSpace, u: PerturbationMap, multiclass: bool = False) -> int:
    """Dimension of a version space; EMPTY_DIM (-1) for the empty one."""
    return get_engine(v.parent, u, multiclass).dimension_of_mask(v.mask)


def witness_tree(hc: HypothesisClass, u: PerturbationMap, multiclass: bool = False) -> AdversarialTree:
    """A shattered tree of maximum depth, deterministic for fixed inputs."""
    eng = get_engine(hc, u, multiclass)
    d = eng.dimension()
    return AdversarialTree(eng.witness_from_mask(eng.full_mask, d), d)


def _check_structure(node, depth: int, hc: HypothesisClass, u: PerturbationMap):
    if depth == 0:
        if node is not None:
            raise TreeStructureError("tree deeper than its declared depth")
        return
    if node is None:
        raise TreeStructureError("tree shallower than its declared depth")
    x0, x1 = node.pair
    for x in (x0, x1):
        if not 0 <= x < u.instance_count:
            raise DomainError(f"tree node instance {x} out of range")
    y0, y1 = node.labels
    for y in (y0, y1):
        if not 0 <= y < hc.label_count:
            raise DomainError(f"tree node label {y} out of range")
    if y0 == y1:
        raise TreeStructureError("tree node labels must be distinct")
    if not u.forward[x0] & u.forward[x1]:
        raise TreeStructureError(
            f"node instances {node.pair} have disjoint perturbation sets"
        )
    _check_structure(node.zero_child, depth - 1, hc, u)
    _check_structure(node.one_child, depth - 1, hc, u)


def is_shattered(tree: AdversarialTree, hc: HypothesisClass, u: PerturbationMap) -> bool:
    """Definitional check: every root-to-node path stays realizable.

    Folding restrictions down every edge covers all branch prefixes, since
    a hypothesis realizing a branch also realizes each of its prefixes.
    Structural defects raise rather than returning False.
    """
    if tree.depth < 0:
        raise TreeStructureError("negative depth")
    _check_structure(tree.root, tree.depth, hc, u)

    def walk(node, v: VersionSpace, remaining: int) -> bool:
        if node is None:
            return True
        for i in (0, 1):
            child = restrict(v, node.pair[i], node.labels[i], u)
            if child.is_empty:
                return False
            if not walk(node.child(i), child, remaining - 1):
                return False
        return True

    return walk(tree.root, VersionSpace.full(hc), tree.depth)


def classic_littlestone_dimension(hc: HypothesisClass) -> int:
    """Classic online dimension, computed over raw label tables.

    Deliberately shares nothing with the bitmask engine: the recursion
    splits a set of tables on single instances, which is the identity-map
    special case the adversarial dimension must agree with.
    """
    if hc.label_count != 2:
        raise DomainError("the classic dimension is defined here for binary labels")
    n = hc.instance_count
    memo: dict[frozenset, int] = {}

    def dim(tables: frozenset) -> int:
        hit = memo.get(tables)
        if hit is not None:
            return hit
        best = 0
        for x in range(n):
            zeros = frozenset(t for t in tables if t[x] == 0)
            if not zeros or len(zeros) == len(tables):
                continue
            ones = tables - zeros
            d = 1 + min(dim(zeros), dim(ones))
            if d > best:
                best = d
        memo[tables] = best
        return best

    return dim(frozenset(h.table for h in hc))
