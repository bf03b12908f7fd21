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
        self.labels = range(hc.label_count)
        masks = consistency_masks(hc, u)
        # every adversary move is a list of legal reveals (label, mask)
        if game == "robust":
            self.moves = []
            for z in range(u.instance_count):
                opts = [
                    (y, masks[x][y])
                    for x in sorted(u.preimage[z])
                    for y in self.labels
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

    def _bellman(self, mask: int, self_value: int, horizon: int | None) -> int:
        best = 0
        for move in self.moves:
            legal = []
            for y, t in move:
                sub = mask & t
                if sub:
                    legal.append((y, sub))
            if not legal:
                continue
            move_value = None
            for pred in self.labels:
                worst = 0
                for y, sub in legal:
                    miss = int(y != pred)
                    if horizon is not None:
                        c = miss + self.value(sub, horizon - 1)
                    elif sub == mask:
                        c = miss + self_value
                    else:
                        c = miss + self.value(sub, None)
                    if c > worst:
                        worst = c
                if move_value is None or worst < move_value:
                    move_value = worst
            if move_value > best:
                best = move_value
        return best

    def value(self, mask: int, horizon: int | None = None) -> int:
        """Optimal forced mistakes from a nonempty version-space mask."""
        if horizon is not None:
            if horizon <= 0:
                return 0
            hit = self._memo_h.get((mask, horizon))
            if hit is not None:
                return hit
            v = self._bellman(mask, 0, horizon)
            self._memo_h[(mask, horizon)] = v
            return v
        hit = self._memo.get(mask)
        if hit is not None:
            return hit
        v = 0
        while True:
            nv = self._bellman(mask, v, None)
            if nv == v:
                break
            if nv > self.ceiling:
                raise SearchInvariantError(
                    "game value climbed past the provable ceiling"
                )
            v = nv
        self._memo[mask] = v
        return v


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
