"""Core vocabulary: hypotheses, perturbation maps, version spaces.

Instances and labels are dense integer ids.  A hypothesis is a total
lookup table over the instance space, and a class holds only its
tables: every reader here takes them directly, and a Hypothesis object
is made only when a caller asks for one.  A perturbation map sends each
instance to the set of inputs an adversary may present in its place.
Version spaces are bitmasks over the hypothesis ids of a parent class,
so restriction is a single AND against a precomputed consistency mask.

A perturbation map stores only its forward sets.  A (class, map) pair
compiles the moves of its games once into its Game, which every search,
learner and generator reads; its consistency masks are the single source
of the robust loss.  Data compiled for a (class, map) pair is kept on
the class (see compiled()), so it is built once, found without hashing
the class and freed with it.

The label mode is the class's (HypothesisClass.is_binary): orientation
nodes carry (0, 1) on two labels and every ordered pair of distinct
labels on more.  Both orders on two labels give the same dimension, so
the mode is no option.  The masks refuse fewer than two labels.
"""

import itertools
from functools import cached_property
from dataclasses import dataclass, field

from .errors import DomainError, LimitExceeded

Instance = int
Label = int


@dataclass(frozen=True, slots=True)
class Hypothesis:
    """A total function from instances to labels.

    Attributes:
        id: Dense index within the owning class (0-based).
        table: Label per instance, indexed by instance id.
        label_count: Size of the label space the table draws from.
    """

    id: int
    table: tuple[Label, ...]
    label_count: int = 2


@dataclass(frozen=True)
class HypothesisClass:
    """A nonempty finite set of hypotheses over a shared instance space.

    tables[i] is hypothesis i's label per instance.  The tables are the
    class's data; a Hypothesis object is made only when one is asked for
    (by iteration) and is not kept.
    """

    tables: tuple[tuple[Label, ...], ...]
    instance_count: int
    label_count: int
    # compiled per-map data, see compiled(); never compared, hashed or printed
    _store: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def from_tables(cls, tables, label_count: int = 2) -> "HypothesisClass":
        """Build a class from distinct label tables.

        Ids are assigned densely in table order.  A repeated table is a
        DomainError, as it is in a scenario file.
        """
        tables = tuple(tuple(t) for t in tables)
        if not tables:
            raise DomainError("a hypothesis class must be nonempty")
        widths = {len(t) for t in tables}
        if len(widths) != 1:
            raise DomainError(f"hypothesis tables have mixed lengths {sorted(widths)}")
        (instance_count,) = widths
        if instance_count == 0:
            raise DomainError("the instance space must be nonempty")
        seen = set()
        for t in tables:
            for y in t:
                if not 0 <= y < label_count:
                    raise DomainError(f"label {y} outside [0, {label_count})")
            if t in seen:
                raise DomainError(f"hypothesis table {t} appears more than once")
            seen.add(t)
        return cls(tables, instance_count, label_count)

    @property
    def size(self) -> int:
        return len(self.tables)

    @property
    def is_binary(self) -> bool:
        return self.label_count == 2

    def __iter__(self):
        return map(Hypothesis, itertools.count(), self.tables, itertools.repeat(self.label_count))


def full_class(instance_count: int, label_count: int = 2) -> HypothesisClass:
    """Every total function on the instance space.  Guarded against blowup."""
    if label_count**instance_count > 4096:
        raise LimitExceeded(
            f"{label_count}^{instance_count} hypotheses exceeds the 4096 enumeration cap"
        )
    tables = itertools.product(range(label_count), repeat=instance_count)
    return HypothesisClass.from_tables(tables, label_count)


@dataclass(frozen=True, slots=True)
class PerturbationMap:
    """Forward sets U(x).

    Only forward defines the map: equality and the hash read it alone.
    Empty U(x) is allowed; such an instance can never be presented as a
    perturbed input and its restriction constraint is vacuous.
    """

    forward: tuple[frozenset[Instance], ...]
    # the map keys every compiled lookup, so it is hashed once, here
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.forward)
        for x, s in enumerate(self.forward):
            if s and (min(s) < 0 or max(s) >= n):
                z = min(s) if min(s) < 0 else max(s)
                raise DomainError(f"U({x}) contains out-of-range instance {z}")
        object.__setattr__(self, "_hash", hash(self.forward))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def from_sets(cls, sets, distinct: dict | None = None) -> "PerturbationMap":
        """The map of the given sets, holding one frozenset per distinct set;
        a `distinct` dict shares them with every map built on it."""
        distinct = {} if distinct is None else distinct
        return cls(tuple(distinct.setdefault(s, s) for s in map(frozenset, sets)))

    @property
    def instance_count(self) -> int:
        return len(self.forward)


def identity_map(n: int) -> PerturbationMap:
    return PerturbationMap.from_sets([{x} for x in range(n)])


def total_map(n: int) -> PerturbationMap:
    return PerturbationMap((frozenset(range(n)),) * n)


def compiled(hc: HypothesisClass, u: PerturbationMap, build, *args):
    """build(hc, u, *args), made once and kept on hc.

    The key (u, build, args) leaves the class out, so a lookup never
    hashes it, and the value lives exactly as long as the class.  build
    must be a module-level function or class: a closure or lambda is a
    new key on every call, so its value would be rebuilt and kept each time.
    """
    key = (u, build, args)
    value = hc._store.get(key)
    if value is None:
        value = hc._store[key] = build(hc, u, *args)
    return value


class Game:
    """The moves of the realizable games on one (class, map) pair.

    masks[x][y] is the bitmask of the hypothesis ids with zero adversarial
    loss on the clean pair (x, y); full is the whole class's mask.  nodes
    holds (pair, labels, mask0, mask1) for every orientation-game node: a
    compatible instance pair (perturbation sets that intersect) with one
    label per side, (0, 1) on a binary class and any two distinct labels
    on more; side i keeps mask_i.  The order is lexicographic in (pair,
    labels); witness extraction and the searches' tie-breaks rely on it.
    inputs[z] is the increasing tuple of the x with z in U(x), the robust
    game's reveals on input z.  The nodes and the inputs are built on
    their first read and kept (functools.cached_property; Python < 3.12
    takes a lock on that read).  Got through game(hc, u).
    """

    def __init__(self, hc: HypothesisClass, u: PerturbationMap):
        if hc.instance_count != u.instance_count:
            raise DomainError("hypothesis class and perturbation map cover different spaces")
        if hc.label_count < 2:
            raise DomainError(f"a game needs at least two labels, got {hc.label_count}")
        self.forward, self.label_count = u.forward, hc.label_count
        # point[z][y]: the hypotheses that label z with y
        point = [[0] * hc.label_count for _ in range(hc.instance_count)]
        for i, table in enumerate(hc.tables):
            bit = 1 << i
            for z, y in enumerate(table):
                point[z][y] |= bit
        # (x, y) keeps the hypotheses labelling every z in U(x) with y; an
        # empty U(x) keeps them all
        self.full = full = (1 << hc.size) - 1
        masks = []
        for targets in u.forward:
            row = []
            for y in range(hc.label_count):
                m = full
                for z in targets:
                    m &= point[z][y]
                row.append(m)
            masks.append(tuple(row))
        self.masks = tuple(masks)

    @cached_property
    def nodes(self):
        n, masks, fwd = self.label_count, self.masks, self.forward
        label_pairs = [(0, 1)] if n == 2 else [(a, b) for a in range(n) for b in range(n) if a != b]
        # the compatible pairs in lexicographic order; nodes share the pair tuples
        sets = list(enumerate(fwd))
        pairs = [(a, b) for a, s in sets for b, t in sets if not s.isdisjoint(t)]
        return tuple(
            (pair, labels, masks[pair[0]][labels[0]], masks[pair[1]][labels[1]])
            for pair in pairs
            for labels in label_pairs
        )

    @cached_property
    def inputs(self) -> tuple[tuple[Instance, ...], ...]:
        inputs = [[] for _ in self.forward]
        for x, targets in enumerate(self.forward):
            for z in targets:
                inputs[z].append(x)
        return tuple(map(tuple, inputs))


def game(hc: HypothesisClass, u: PerturbationMap) -> Game:
    """The Game of (hc, u), compiled once and kept on hc."""
    return compiled(hc, u, Game)


def consistency_masks(hc: HypothesisClass, u: PerturbationMap):
    """masks[x][y]: bitmask of hypothesis ids with zero adversarial loss on (x, y)."""
    return compiled(hc, u, Game).masks


def check_label_mode(hc: HypothesisClass, claimed) -> None:
    """Refuse a claimed mode (a multiclass= keyword) other than hc's; None passes."""
    if claimed is not None and claimed == hc.is_binary:
        raise DomainError(f"multiclass={claimed!r} disagrees with {hc.label_count} labels")


@dataclass(frozen=True, slots=True)
class VersionSpace:
    """A subset of a hypothesis class, canonically a fixed-width bit vector."""

    parent: HypothesisClass
    mask: int

    @classmethod
    def full(cls, hc: HypothesisClass) -> "VersionSpace":
        return cls(hc, (1 << hc.size) - 1)

    @property
    def is_empty(self) -> bool:
        return self.mask == 0


def restrict(v: VersionSpace, x: Instance, y: Label, u: PerturbationMap) -> VersionSpace:
    """Keep the hypotheses with zero adversarial loss on the clean pair (x, y).

    With U(x) empty the constraint is vacuous and v comes back unchanged.
    """
    hc = v.parent
    _check_pair(hc, x, y)
    return VersionSpace(hc, v.mask & consistency_masks(hc, u)[x][y])


def surviving_mask(pairs, hc: HypothesisClass, u: PerturbationMap) -> int:
    """Bitmask of hypotheses with zero adversarial loss on every given pair."""
    masks = consistency_masks(hc, u)
    m = (1 << hc.size) - 1
    for x, y in pairs:
        _check_pair(hc, x, y)
        m &= masks[x][y]
        if m == 0:
            break
    return m


def _check_pair(hc: HypothesisClass, x: Instance, y: Label) -> None:
    if not 0 <= x < hc.instance_count:
        raise DomainError(f"instance id {x} outside [0, {hc.instance_count})")
    if not 0 <= y < hc.label_count:
        raise DomainError(f"label id {y} outside [0, {hc.label_count})")


def checked_rounds(hc: HypothesisClass, rounds) -> list:
    """rounds as a list, after refusing any round (z, x, y) whose input,
    instance or label id is out of range."""
    rounds, n, labels = list(rounds), hc.instance_count, hc.label_count
    for z, x, y in rounds:
        if not (0 <= z < n and 0 <= x < n and 0 <= y < labels):  # one test per valid round
            if not 0 <= z < n:
                raise DomainError(f"input id {z} outside [0, {n})")
            _check_pair(hc, x, y)
    return rounds
