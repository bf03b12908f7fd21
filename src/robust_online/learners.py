"""Online learners for the two game protocols.

Orientation game: the adversary shows a pair of candidate instances with
intersecting perturbation sets and a label per side; the learner must say
which side will be revealed as clean.

Robust game: the adversary shows a perturbed input; the learner commits to
a label before the clean pair is revealed.

The optimal orientation learner predicts the side whose restricted version
space still has the larger adversarial dimension.  The robust learner is a
reduction: it asks the orientation learner to orient candidate preimages of
the perturbed input against each other, one (label, label) pair at a time
for every label count, and on every mistake feeds it one resolved query on
which the orientation learner itself was wrong, so both mistake counts are
bounded by the adversarial dimension.

A learner's state is its version space; it keeps no mistake count.  The
code that sees both the prediction and the reveal counts the mistakes: the
loss bits of the game runners, the loss matrix of the expert replay, and
the loops of the estimators.

The optimal learners of one (class, map) share a LearnerContext, got
with one compiled() lookup: its Game, the dimension engine and one
table of the robust reduction's states.  A state (robust
mask, orientation mask) is interned as a dense id, and one compact
array, n entries per state, memoizes the predicted label per (id, input).

The context is the robust reduction: predict(s, z) reads the memo and
decides an undecided entry, comparing each label's best candidate, and
step(s, z, x, y) is the transition, logging the
tolerant events into a list when given one.  A RobustReductionLearner is
a state id on it, strict or tolerant, with its events; the family experts
(uncertain) step ids every round, and LazyRobustAutomaton, the agnostic
lazy expert, only on mistakes.
"""

from array import array
from dataclasses import dataclass
from functools import cache

from .dimension import EMPTY_DIM, get_engine
from .errors import DomainError, ProtocolViolation, SearchInvariantError
from .model import HypothesisClass, PerturbationMap, check_label_mode, compiled, consistency_masks
from .model import game

OPTIMAL = "optimal"
BASELINES = ("constant-0", "constant-1", "random", "majority")
LEARNER_NAMES = (OPTIMAL,) + BASELINES
# the best side of a label with no candidate: below every dimension
NO_CANDIDATE = EMPTY_DIM - 1


@dataclass(frozen=True, slots=True)
class OrientationQuery:
    """One orientation-game round: candidate instances and their labels.

    Side i of the pair carries labels[i]; binary games fix labels (0, 1),
    so the side index and the label coincide.  Slotted, because the
    orientation generator keeps every query it has drawn with its class.
    """

    pair: tuple[int, int]
    labels: tuple[int, int] = (0, 1)


def _soa_label(d0: int, d1: int, y0: int, y1: int) -> int:
    """The SOA rule on sides (dimension d_i, label y_i): the label of the
    larger dimension, ties to the smaller label.  The mistake bound holds
    whatever rule breaks ties."""
    if d0 != d1:
        return y0 if d0 > d1 else y1
    return min(y0, y1)


@cache
def _memo_typecode(label_count: int) -> tuple[str, int]:
    """The narrowest array typecode whose largest value is not a label, and that value."""
    typecode = next(t for t in "BHIQ" if label_count < 256 ** array(t).itemsize)
    return typecode, 256 ** array(typecode).itemsize - 1


class LearnerContext:
    """What the optimal learners of one (class, map) share, and the robust
    reduction itself: the Game, its masks, the dimension engine, the
    reduction's state table and its prediction memo.

    Got through compiled(hc, u, LearnerContext), so building a learner
    takes one lookup.  states[s] is the state (robust mask, orientation
    mask) with id s (0 is the start), and predictions[s * n + z] its label
    on input z < n.  predictions is one array, grown by n entries as each
    state is interned.  Its typecode is the narrowest whose largest value
    is not a label, and that value, `undecided`, marks an entry not yet
    decided.
    """

    def __init__(self, hc: HypothesisClass, u: PerturbationMap):
        self.hc = hc
        self.u = u
        self.game = game(hc, u)
        self.masks, self.full = self.game.masks, self.game.full
        self.engine = get_engine(hc, u)
        self.n = u.instance_count
        self.states = [(self.full, self.full)]
        self._ids = {self.states[0]: 0}
        typecode, self.undecided = _memo_typecode(hc.label_count)
        self._row = array(typecode, [self.undecided]) * self.n
        self.predictions = array(typecode, self._row)

    def state(self, mask: int, orientation_mask: int) -> int:
        """The id of the state (mask, orientation_mask), interned on first sight."""
        pair = (mask, orientation_mask)
        s = self._ids.get(pair)
        if s is None:
            s = self._ids[pair] = len(self.states)
            self.states.append(pair)
            self.predictions += self._row
        return s

    def predict(self, s: int, z: int) -> int:
        """The label state s predicts on input z, decided on first ask."""
        key = s * self.n + z
        pred = self.predictions[key]
        if pred == self.undecided:
            pred = self.predictions[key] = self._decide(s, z)
        return pred

    def _decide(self, s: int, z: int) -> int:
        """The smallest label with the largest best side, or the no-winner
        default when no label has a candidate.

        A candidate of label y on input z is an x in inputs[z] with
        mask & masks[x][y] nonzero; its side has dimension d(x, y) =
        dim(orientation_mask & masks[x][y]), and y's best side D[y] is the
        largest d(x, y) over its candidates.  This is the all-pairs SOA
        rule: y wins when one of its candidates a is oriented toward y
        against every candidate b of every other label y2, that is, d(a,
        y) > d(b, y2), or the two are equal and y < y2.  The condition
        only gets easier as d(a, y) grows and as d(b, y2) falls, so y has
        such an a exactly when its best one beats the best b of every y2
        with a candidate: when (D[y], -y) > (D[y2], -y2).  These keys are
        distinct, so the label with the largest key, the smallest label
        attaining max D, is the one winner, and with no candidate there
        is none.  The scan keeps the first label whose side beats every
        side before it.
        """
        mask, orientation_mask = self.states[s]
        dim, masks, xs = self.engine.dimension_of_mask, self.masks, self.game.inputs[z]
        winner, top = int(self.hc.is_binary), NO_CANDIDATE  # no winner: 1 on two labels, 0 on more
        for y in range(self.hc.label_count):
            for x in xs:
                m = masks[x][y]
                if mask & m and (d := dim(orientation_mask & m)) > top:
                    winner, top = y, d
        return winner

    def step(self, s: int, z: int, x: int, y: int, events: list | None = None) -> int:
        """The id of state s after the clean reveal (x, y) of a round
        showing z; not memoized.

        A mistake feeds the orientation state one wrongly oriented query
        ((x, x2), (y, y2)), x2 a candidate of another label y2.  Its
        revealed side is (x, y) whichever x2 it is, so the search only
        decides whether one exists: a candidate whose key (d(x2, y2), -y2)
        beats (d(x, y), -y).  The prediction p differs from y, and _decide
        chose p as the label with the largest key (D[p], -p) over every
        label with a candidate, so some candidate of another label beats
        the revealed side exactly when one of p's does; when no label has
        a candidate, p has none either.  So only p's candidates are
        scanned.  Given an events list, step logs in order z outside U(x)
        (the map may be only a belief), a mistake with no such
        counterpart, and a reveal that empties the robust mask.  Without
        one, an emptied state is returned as it is: no candidate survives
        in it, so no counterpart is fed and the AND keeps the mask 0, and
        a silent step never decides a memo entry of an emptied state.
        """
        mask, orientation_mask = self.states[s]
        if events is None:
            if mask == 0:
                return s
        elif z not in self.u.forward[x]:
            events.append("input-outside-belief")
        revealed = self.masks[x][y]
        if (p := self.predict(s, z)) != y:
            dim, masks = self.engine.dimension_of_mask, self.masks
            d = dim(orientation_mask & revealed)
            # d(x2, p) > d, or d(x2, p) = d and p < y
            if any(
                dim(orientation_mask & masks[x2][p]) >= d + (p > y)
                for x2 in self.game.inputs[z]
                if mask & masks[x2][p]
            ):
                orientation_mask &= revealed
            elif events is not None:
                events.append("missing-counterpart")
        new = mask & revealed
        if events is not None and new == 0 and mask != 0:
            events.append("version-space-emptied")
        return self.state(new, orientation_mask)


class SoaOrientationLearner:
    """Dimension-greedy orientation learner.

    Predicts the query label whose side keeps the larger-dimensional
    version space, with ties broken toward the smaller label id.  The
    prediction is side-symmetric: swapping the pair and the labels
    together gives the same label.  Every mistake strictly decreases the
    dimension of the version space, so mistakes never exceed the class
    dimension on realizable sequences.
    """

    game = "orientation"

    def __init__(self, hc: HypothesisClass, u: PerturbationMap, *, strict: bool = True):
        ctx = compiled(hc, u, LearnerContext)
        self.strict = strict
        self.engine, self._masks, self.mask = ctx.engine, ctx.masks, ctx.full
        self.events: list[str] = []

    def side_dimensions(self, query: OrientationQuery) -> tuple[int, int]:
        (a, b), (y0, y1) = query.pair, query.labels
        dim, masks = self.engine.dimension_of_mask, self._masks
        return dim(self.mask & masks[a][y0]), dim(self.mask & masks[b][y1])

    def predict(self, query: OrientationQuery) -> int:
        d0, d1 = self.side_dimensions(query)
        y0, y1 = query.labels
        return _soa_label(d0, d1, y0, y1)

    def update(self, query: OrientationQuery, side: int) -> None:
        """Absorb the reveal of query side `side` (0 or 1)."""
        if side not in (0, 1):
            raise ProtocolViolation(f"revealed side must be 0 or 1, got {side}")
        new = self.mask & self._masks[query.pair[side]][query.labels[side]]
        if new == 0:
            if self.strict:
                raise ProtocolViolation(
                    "orientation reveal emptied the version space; "
                    "the revealed sequence is not realizable"
                )
            if self.mask != 0:
                self.events.append("version-space-emptied")
        self.mask = new


# what a strict robust learner raises where a tolerant one logs the event
_STRICT_ERRORS = {
    "input-outside-belief": (
        ProtocolViolation,
        "revealed clean instance {x} does not perturb to the shown input {z}",
    ),
    "missing-counterpart": (
        SearchInvariantError,
        "mistake round has no wrongly oriented counterpart; "
        "this cannot happen on a realizable sequence",
    ),
    "version-space-emptied": (
        ProtocolViolation,
        "clean reveal emptied the version space; the sequence is not realizable",
    ),
}


class RobustReductionLearner:
    """Robust-game learner built on the SOA orientation learner: a state
    id on its LearnerContext, which predicts and steps it.

    Each round, the candidate preimages of the perturbed input are grouped
    by label into P[y] (instances x with the input in U(x) and a nonempty
    restriction on (x, y)).  A label y wins when one of its candidates is
    oriented toward y against every candidate of every other label.  With
    no winner the learner answers 1 on a binary class and the smallest
    label id, 0, on a class with more labels; at most one label wins.

    On a mistake there must exist a candidate of some other label that the
    orientation learner oriented wrongly against the revealed clean
    instance; that resolved query is fed back, charging the mistake to the
    orientation learner.  Strict mode treats a reveal outside U(x), a
    missing counterpart or an emptied version space as a broken
    realizability contract, raises, and keeps its state; tolerant mode
    (strict=False) records an event and keeps playing, predicting the
    no-winner label once the version space is gone.
    """

    game = "robust"

    def __init__(self, hc: HypothesisClass, u: PerturbationMap, *, strict: bool = True):
        self.strict = strict
        self.ctx = compiled(hc, u, LearnerContext)
        self.s = 0
        self.events: list[str] = []

    @property
    def mask(self) -> int:
        """The robust version space, as a mask over the class."""
        return self.ctx.states[self.s][0]

    def predict(self, z: int) -> int:
        """The label on input z, memoized per (state id, z) on the context."""
        return self.ctx.predict(self.s, z)

    def update(self, z: int, x: int, y: int) -> None:
        """Absorb the clean reveal (x, y) for the round that showed z."""
        events = self.events
        s = self.ctx.step(self.s, z, x, y, events)
        if self.strict and events:
            error, message = _STRICT_ERRORS[events[0]]
            events.clear()
            raise error(message.format(x=x, z=z))
        self.s = s


def worst_case_mistakes(hc, u, game: str, mistakes=None) -> int:
    """The most mistakes the strict optimal learner of `game` makes over
    every realizable sequence, of any length.

    It is the longest path through the learner's state graph, an edge
    costing 1 when the prediction misses.  The robust learner's states are
    LearnerContext ids, stepped by every Game reveal (x, y), x in inputs[z],
    that keeps the robust mask nonempty; the orientation learner's states
    are masks, and each edge reveals a side of a Game node that keeps
    the mask nonempty.  Both masks only shrink, so the graph is a DAG plus
    self-loops.  A mistake on a self-loop, which repeats without end, and
    an event the strict learner raises on both raise SearchInvariantError.
    Given a list, mistakes gets (state, next state) of every mistake edge.
    """
    ctx = compiled(hc, u, LearnerContext)
    if game == "robust":
        labels = range(hc.label_count)
        reveals = [(z, x, y) for z, xs in enumerate(ctx.game.inputs) for x in xs for y in labels]

        def moves(s):
            mask, events = ctx.states[s][0], []
            for z, x, y in reveals:
                if mask & ctx.masks[x][y]:
                    t = ctx.step(s, z, x, y, events)
                    if events:
                        raise SearchInvariantError(f"strict learner rejects a reveal: {events[0]}")
                    yield t, ctx.predict(s, z) != y
    elif game == "orientation":
        dim = ctx.engine.dimension_of_mask

        def moves(mask):
            for _, (y0, y1), m0, m1 in ctx.game.nodes:
                label = _soa_label(dim(mask & m0), dim(mask & m1), y0, y1)
                for side, y in ((mask & m0, y0), (mask & m1, y1)):
                    if side:
                        yield side, label != y
    else:
        raise ValueError(f"unknown game {game!r}")

    @cache
    def longest(s: int) -> int:
        best = 0
        for t, miss in moves(s):
            if t == s and miss:
                raise SearchInvariantError("a mistake leaves the learner's state unchanged")
            if t != s:
                if miss and mistakes is not None:
                    mistakes.append((s, t))
                best = max(best, miss + longest(t))
        return best

    return longest(0 if game == "robust" else ctx.full)


class LazyRobustLearner:
    """Update-on-mistake wrapper; correct rounds leave the state untouched.

    The inner learner changes only in update, so update reuses the
    prediction of the preceding predict call for the same input.
    """

    game = "robust"

    def __init__(self, inner):
        self.inner = inner
        self._last = None  # (z, prediction) of the latest predict

    def predict(self, z: int) -> int:
        self._last = (z, self.inner.predict(z))
        return self._last[1]

    def update(self, z: int, x: int, y: int) -> None:
        last, self._last = self._last, None
        if last is None or last[0] != z:
            last = (z, self.inner.predict(z))
        if last[1] != y:
            self.inner.update(z, x, y)


class LazyOrientationLearner:
    """Update-on-mistake wrapper for the orientation game, like LazyRobustLearner."""

    game = "orientation"

    def __init__(self, inner):
        self.inner = inner
        self._last = None  # (query, prediction) of the latest predict

    def predict(self, query: OrientationQuery) -> int:
        self._last = (query, self.inner.predict(query))
        return self._last[1]

    def update(self, query: OrientationQuery, side: int) -> None:
        last, self._last = self._last, None
        if last is None or last[0] != query:
            last = (query, self.inner.predict(query))
        if last[1] != query.labels[side]:
            self.inner.update(query, side)


def binary_context(hc: HypothesisClass, u: PerturbationMap) -> LearnerContext:
    """The LearnerContext of a binary class; more labels are a DomainError."""
    if not hc.is_binary:
        raise DomainError(f"this learner is binary; the class has {hc.label_count} labels")
    return compiled(hc, u, LearnerContext)


class LazyRobustAutomaton:
    """The tolerant lazy optimal robust learner the agnostic replays run,
    on the ids and memo of the binary LearnerContext (binary_context).

    An emptied state (robust mask 0) predicts 0 without the memo, where
    the context stores the no-winner label 1.  Only a mistake steps the
    context, so a correct round is a self-loop, step(s, z, x,
    predict(s, z)) == s, and callers may skip it.  step memoizes its
    transitions.  Got through compiled(hc, u, LazyRobustAutomaton).
    """

    def __init__(self, hc, u):
        self.ctx = binary_context(hc, u)
        self.transitions = {}

    def predict(self, s: int, z: int) -> int:
        ctx = self.ctx
        if ctx.states[s][0] == 0:
            return 0
        pred = ctx.predictions[s * ctx.n + z]
        return ctx.predict(s, z) if pred == ctx.undecided else pred

    def step(self, s: int, z: int, x: int, y: int) -> int:
        """The id of the state after the reveal (x, y) of a round showing z."""
        nxt = self.transitions.get((s, z, x, y))
        if nxt is None:
            nxt = s if self.predict(s, z) == y else self.ctx.step(s, z, x, y)
            self.transitions[s, z, x, y] = nxt
        return nxt


class ConstantLearner:
    def __init__(self, game: str, label: int):
        self.game = game
        self.label = label

    def predict(self, _) -> int:
        return self.label

    def update(self, *args) -> None:
        """A constant learner keeps no state, so a reveal changes nothing."""


class RandomLearner:
    """Uniform guesses; orientation games guess among the presented labels."""

    def __init__(self, game: str, label_count: int, rng):
        self.game = game
        self.label_count = label_count
        self.rng = rng

    def predict(self, query) -> int:
        if self.game == "orientation":
            return query.labels[int(self.rng.integers(2))]
        return int(self.rng.integers(self.label_count))

    def update(self, *args) -> None:
        """Guesses ignore the past, so a reveal changes nothing."""


class MajorityLearner:
    """Version-space head counts instead of dimensions; tolerant of emptying."""

    def __init__(self, game: str, hc: HypothesisClass, u: PerturbationMap):
        self.game = game
        self.hc = hc
        self._masks = consistency_masks(hc, u)
        self.mask = (1 << hc.size) - 1

    def predict(self, query) -> int:
        if self.game == "orientation":
            sizes = [
                (self.mask & self._masks[query.pair[i]][query.labels[i]]).bit_count()
                for i in (0, 1)
            ]
            if sizes[0] != sizes[1]:
                return query.labels[sizes.index(max(sizes))]
            return min(query.labels)
        z = query
        counts = [0] * self.hc.label_count
        for i, table in enumerate(self.hc.tables):
            if self.mask >> i & 1:
                counts[table[z]] += 1
        return counts.index(max(counts))

    def update(self, *args) -> None:
        if self.game == "orientation":
            query, side = args
            x, label = query.pair[side], query.labels[side]
        else:
            _, x, label = args
        self.mask &= self._masks[x][label]


def make_learner(
    name: str,
    game: str,
    hc: HypothesisClass,
    u: PerturbationMap,
    multiclass=None,
    rng=None,
    strict: bool = True,
):
    """Build a registered learner for one game.

    Names: "optimal" (SOA orientation learner, or its robust reduction),
    "constant-0", "constant-1", "random", "majority".
    """
    if game not in ("orientation", "robust"):
        raise ValueError(f"unknown game {game!r}")
    check_label_mode(hc, multiclass)
    if name == OPTIMAL:
        cls = SoaOrientationLearner if game == "orientation" else RobustReductionLearner
        return cls(hc, u, strict=strict)
    if name == "constant-0":
        return ConstantLearner(game, 0)
    if name == "constant-1":
        return ConstantLearner(game, 1)
    if name == "random":
        if rng is None:
            raise ValueError("the random learner needs an rng")
        return RandomLearner(game, hc.label_count, rng)
    if name == "majority":
        return MajorityLearner(game, hc, u)
    raise ValueError(f"unknown learner {name!r}; choose from {LEARNER_NAMES}")
