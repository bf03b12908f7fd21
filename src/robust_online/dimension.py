"""Adversarial dimension of a hypothesis class under a perturbation map.

The dimension is the maximum depth of a full binary tree whose nodes are
instance pairs with intersecting perturbation sets and two distinct
labels, such that every root-to-node path is realizable.  It is computed
by a memoized recursion over version-space bitmasks:

    dim(V) = 1 + max over candidate nodes of min(dim(V0), dim(V1))

where V0, V1 are the two child restrictions and a candidate requires both
to be nonempty.  Because the perturbation sets of a node intersect, V0 and
V1 are disjoint, hence both strictly smaller than V: the recursion
terminates without any assumed depth bound, and the dimension of a class
of size m never exceeds floor(log2 m).

The search is a branch and bound with two exact cuts:

- the node loop stops once its best value reaches floor(log2 |V|), since
  no node can go past that cap;
- a node can raise the best value b only if both children have dimension
  at least b, so it is skipped when either child's cap floor(log2 |Vi|)
  is below b (tested as |Vi| < 2^b, the same condition for |Vi| >= 1),
  and its second child is not searched when the first child's exact
  dimension is below b.

A cut only skips nodes that cannot change the maximum, and every child
that is searched is searched in full, so every memo entry is the exact
dimension of its mask.  Witness trees and learner queries, which read the
memo, are the same as with the unpruned recursion.

The search and the witness walk splits, not nodes: each distinct
unordered pair of nonempty sides once, at its first node.  Nodes with the
same sides have the same children and one with an empty side has none,
so the maximum is unchanged; whether a node qualifies as a witness reads
only its sides, so the first that does is the first of its split and the
tree is unchanged.  The nodes are model.Game's; the worst-case walk and
the orientation generator read them in order.
"""

from dataclasses import dataclass

from .errors import DomainError, TreeStructureError
from .model import HypothesisClass, PerturbationMap, VersionSpace, check_label_mode, compiled
from .model import game, restrict

EMPTY_DIM = -1  # sentinel dimension of the empty version space


def _log2_size(mask: int) -> int:
    """floor(log2 |V|) for a nonempty mask: the cap on dim(V)."""
    return mask.bit_count().bit_length() - 1


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class AdversarialTree:
    """A full binary tree of a declared depth; depth 0 has no root."""

    root: AdversarialTreeNode | None
    depth: int


class DimensionEngine:
    """Shared search state for one (class, map) pair.

    Holds the splits of the pair's Game nodes and a bitmask-keyed memo
    table, so the online learners can ask for dimensions of thousands of
    version spaces at amortized dictionary-lookup cost.
    """

    def __init__(self, hc: HypothesisClass, u: PerturbationMap):
        g = game(hc, u)
        self.full_mask = g.full
        firsts = {}  # the first node of each unordered pair of nonempty sides
        for node in g.nodes:
            m0, m1 = node[2], node[3]
            if m0 and m1:
                firsts.setdefault((m0, m1) if m0 < m1 else (m1, m0), node)
        self.splits = tuple(firsts.values())
        self._memo: dict[int, int] = {0: EMPTY_DIM}

    def dimension_of_mask(self, mask: int) -> int:
        memo = self._memo
        hit = memo.get(mask)
        if hit is not None:
            return hit
        cap = _log2_size(mask)
        best = 0
        for _, _, m0, m1 in self.splits:
            if best == cap:
                break
            v0 = mask & m0
            if not v0:
                continue
            v1 = mask & m1
            if not v1:
                continue
            if v0.bit_count() < 1 << best or v1.bit_count() < 1 << best:
                continue
            d = self.dimension_of_mask(v0)
            if d < best:
                continue
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
        """First (lexicographic) node whose children support depth-1 more.

        The search's size cut skips nodes that cannot qualify, and the
        second child is searched only when the first qualifies.
        """
        if depth == 0:
            return None
        need = depth - 1
        for pair, labels, m0, m1 in self.splits:
            v0 = mask & m0
            v1 = mask & m1
            if not v0 or not v1 or v0.bit_count() < 1 << need or v1.bit_count() < 1 << need:
                continue
            if self.dimension_of_mask(v0) >= need and self.dimension_of_mask(v1) >= need:
                return AdversarialTreeNode(
                    pair,
                    labels,
                    self.witness_from_mask(v0, need),
                    self.witness_from_mask(v1, need),
                )
        raise AssertionError("no witness node at a depth the search just certified")


def get_engine(hc: HypothesisClass, u: PerturbationMap) -> DimensionEngine:
    return compiled(hc, u, DimensionEngine)


def adversarial_dimension(hc: HypothesisClass, u: PerturbationMap, multiclass=None) -> int:
    """Exact adversarial dimension of hc under u; at most floor(log2 |hc|)."""
    check_label_mode(hc, multiclass)
    return get_engine(hc, u).dimension()


def dimension_of(v: VersionSpace, u: PerturbationMap, multiclass=None) -> int:
    """Dimension of a version space; EMPTY_DIM (-1) for the empty one."""
    check_label_mode(v.parent, multiclass)
    return get_engine(v.parent, u).dimension_of_mask(v.mask)


def witness_tree(hc: HypothesisClass, u: PerturbationMap, multiclass=None) -> AdversarialTree:
    """A shattered tree of maximum depth, deterministic for fixed inputs.

    Built once per (class, map) and kept with the class: every call
    returns the same frozen tree.
    """
    check_label_mode(hc, multiclass)
    return compiled(hc, u, _build_witness_tree)


def _build_witness_tree(hc: HypothesisClass, u: PerturbationMap):
    eng = get_engine(hc, u)
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
    if u.forward[x0].isdisjoint(u.forward[x1]):
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

    def walk(node, v: VersionSpace) -> bool:
        if node is None:
            return True
        for i in (0, 1):
            child = restrict(v, node.pair[i], node.labels[i], u)
            if child.is_empty:
                return False
            if not walk(node.child(i), child):
                return False
        return True

    return walk(tree.root, VersionSpace.full(hc))


def classic_littlestone_dimension(hc: HypothesisClass) -> int:
    """Classic online dimension, computed over raw label tables.

    Deliberately shares nothing with the bitmask engine: the recursion
    splits a set of tables on single instances, which is the identity-map
    special case the adversarial dimension must agree with.  A set of
    tables is an int bitmask over table ids, and instance x splits it
    with the mask of the tables that label x with 0, built here from the
    raw tables; no perturbation map is read.  m tables have dimension at
    most floor(log2 m), and the search stops there.
    """
    if not hc.is_binary:
        raise DomainError("the classic dimension is defined here for binary labels")
    zeros_at = [0] * hc.instance_count
    for i, table in enumerate(hc.tables):
        for x, y in enumerate(table):
            if y == 0:
                zeros_at[x] |= 1 << i
    memo: dict[int, int] = {}

    def dim(tables: int) -> int:
        hit = memo.get(tables)
        if hit is not None:
            return hit
        best, cap = 0, tables.bit_count().bit_length() - 1
        for z in zeros_at:
            if best == cap:
                break
            zeros = tables & z
            ones = tables ^ zeros
            # a split beats best only if both sides have 2^best tables and dimension best
            if zeros.bit_count() >> best and ones.bit_count() >> best:
                d = dim(zeros)
                if d >= best:
                    best = max(best, 1 + min(d, dim(ones)))
        memo[tables] = best
        return best

    return dim((1 << hc.size) - 1)
