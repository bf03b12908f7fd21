"""Exhaustive minimax value of the two realizable games.

Independent of the dimension search: the value is computed directly from
the game protocol, with the adversary restricted to realizability-
preserving reveals and the learner ranging over all labels.

States are version-space bitmasks.  A reveal either strictly shrinks the
state (the restriction drops at least the hypotheses inconsistent with it)
or leaves it unchanged; unchanged reveals make the state equation refer to
itself, so each state's value is the least fixpoint of its one-variable
Bellman equation, found by iterating upward from zero.  The iteration is
guarded by a provable ceiling: an optimal learner concedes at most
|class| - 1 mistakes, because whenever a mistake could leave the state
unchanged all legal reveals share one label, which the learner can simply
predict.

Each state builds the legal reveals of each move once and looks up each
child's value once.  A move whose reveals all shrink the state is worth a
constant; only the moves with a reveal that leaves the state unchanged are
evaluated again on each fixpoint pass, where that reveal reads the running
value.
"""

from .errors import DomainError, LimitExceeded, SearchInvariantError
from .model import HypothesisClass, PerturbationMap, compiled, consistency_masks, game_nodes

MAX_INSTANCES = 5
MAX_HYPOTHESES = 16


class MinimaxSolver:
    """Game-value solver for one (class, map, game, label mode) triple."""

    def __init__(
        self,
        hc: HypothesisClass,
        u: PerturbationMap,
        game: str,
        multiclass: bool = False,
    ):
        if game not in ("robust", "orientation"):
            raise DomainError(f"unknown game {game!r}")
        if hc.instance_count > MAX_INSTANCES or hc.size > MAX_HYPOTHESES:
            raise LimitExceeded(
                f"exhaustive game search is limited to {MAX_INSTANCES} instances "
                f"and {MAX_HYPOTHESES} hypotheses; got {hc.instance_count} and {hc.size}"
            )
        if not multiclass and hc.label_count != 2:
            raise DomainError("binary mode requires exactly two labels")
        self.hc = hc
        self.u = u
        self.game = game
        masks = consistency_masks(hc, u)
        # every adversary move is a list of legal reveals (label, mask)
        if game == "robust":
            self.moves = []
            for z in range(u.instance_count):
                opts = [
                    (y, masks[x][y])
                    for x in sorted(u.preimage[z])
                    for y in range(hc.label_count)
                ]
                if opts:
                    self.moves.append(opts)
        else:
            self.moves = [
                [(y0, m0), (y1, m1)]
                for _, (y0, y1), m0, m1 in game_nodes(hc, u, multiclass)
            ]
        self.ceiling = hc.size
        self._memo: dict[int, int] = {}
        self._memo_h: dict[tuple[int, int], int] = {}

    def _bellman(self, mask: int, horizon: int) -> int:
        best = 0
        for move in self.moves:
            legal = []
            for y, t in move:
                sub = mask & t
                if sub:
                    legal.append((y, self.value(sub, horizon - 1)))
            if legal:
                mv = _move_value(legal, 0)
                if mv > best:
                    best = mv
        return best

    def value(self, mask: int, horizon: int | None = None) -> int:
        """Optimal forced mistakes from a nonempty version-space mask."""
        if horizon is not None:
            if horizon <= 0:
                return 0
            hit = self._memo_h.get((mask, horizon))
            if hit is not None:
                return hit
            v = self._bellman(mask, horizon)
            self._memo_h[(mask, horizon)] = v
            return v
        memo = self._memo
        hit = memo.get(mask)
        if hit is not None:
            return hit
        # None marks a reveal that leaves the state unchanged
        fixed = 0
        looping = []
        for move in self.moves:
            legal = []
            loops = False
            for y, t in move:
                sub = mask & t
                if sub == mask:
                    legal.append((y, None))
                    loops = True
                elif sub:
                    c = memo.get(sub)
                    legal.append((y, self.value(sub) if c is None else c))
            if loops:
                looping.append(legal)
            elif legal:
                mv = _move_value(legal, 0)
                if mv > fixed:
                    fixed = mv
        v = 0
        while True:
            nv = fixed
            for legal in looping:
                mv = _move_value(legal, v)
                if mv > nv:
                    nv = mv
            if nv == v:
                break
            if nv > self.ceiling:
                raise SearchInvariantError(
                    "game value climbed past the provable ceiling"
                )
            v = nv
        memo[mask] = v
        return v


def _move_value(legal: list, self_value: int) -> int:
    """The learner's best worst case against one move's legal reveals.

    A reveal is (label, child value); child value None marks a reveal that
    leaves the state unchanged, worth self_value.  Predicting a label of a
    highest-valued reveal costs max(top, 1 + the best reveal of any other
    label); any other prediction costs at least 1 + top, so that is the
    minimum over predictions.
    """
    top, top_label = -1, None
    for y, c in legal:
        if c is None:
            c = self_value
        if c > top:
            top, top_label = c, y
    rest = -1
    for y, c in legal:
        if y != top_label:
            if c is None:
                c = self_value
            if c > rest:
                rest = c
    return top if top > rest else rest + 1


def optimal_mistake_bound(
    hc: HypothesisClass,
    u: PerturbationMap,
    game: str = "robust",
    multiclass: bool = False,
    horizon: int | None = None,
) -> int:
    """Exact minimax mistake count of the realizable game.

    horizon=None means the unbounded game (its value stabilizes because
    mistakes are bounded); a nonnegative horizon caps the round count.
    """
    solver = compiled(hc, u, MinimaxSolver, game, multiclass)
    return solver.value((1 << hc.size) - 1, horizon)
