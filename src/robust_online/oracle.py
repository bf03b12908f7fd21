"""Exhaustive minimax value of the two realizable games.

Independent of the dimension search: the value is computed directly from
the game protocol, with the adversary restricted to realizability-
preserving reveals and the learner ranging over all labels.

States are version-space bitmasks, and one memoized recursion serves the
unbounded game (children valued unbounded) and the horizon-capped game
(children valued at one round less).  A reveal either strictly shrinks
the state (the restriction drops at least the hypotheses inconsistent
with it) or leaves it unchanged.  Reveals that leave the state unchanged
are skipped, and the value stays exact:

- Robust move z.  If the reveal (x, y) leaves V unchanged, every h in V
  labels all of U(x), which holds z, with y.  So every other legal
  reveal of the move also carries label y: the move costs no mistake and
  is worth the maximum over its children.  The unchanged reveal's own
  term, the state's value, adds nothing to the least fixpoint of the
  state's Bellman equation.
- Orientation node.  The two sides' masks are disjoint, so an unchanged
  side means the other side is empty, and the move is worth the state's
  value itself, which contributes 0 to the least fixpoint.
- Capped game.  The unchanged reveal's term is v(V, h - 1) <= v(V, h),
  because the value is nondecreasing in the horizon, so dropping it does
  not change the maximum.

Every recursive call is on a strict sub-mask (or a smaller horizon), so
the recursion terminates.
"""

from .errors import DomainError, LimitExceeded
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
        # keyed by mask in the unbounded game, by (mask, horizon) when capped
        self._memo: dict[int | tuple[int, int], int] = {}

    def value(self, mask: int, horizon: int | None = None) -> int:
        """Optimal forced mistakes from a nonempty version-space mask."""
        if horizon is None:
            key, child = mask, None
        elif horizon <= 0:
            return 0
        else:
            key, child = (mask, horizon), horizon - 1
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        best = 0
        for move in self.moves:
            legal = []
            for y, t in move:
                sub = mask & t
                if sub and sub != mask:
                    legal.append((y, self.value(sub, child)))
            if legal:
                mv = _move_value(legal)
                if mv > best:
                    best = mv
        self._memo[key] = best
        return best


def _move_value(legal: list) -> int:
    """The learner's best worst case against one move's legal reveals.

    A reveal is (label, child value).  Predicting a label of a
    highest-valued reveal costs max(top, 1 + the best reveal of any other
    label); any other prediction costs at least 1 + top, so that is the
    minimum over predictions.
    """
    top, top_label = -1, None
    for y, c in legal:
        if c > top:
            top, top_label = c, y
    rest = -1
    for y, c in legal:
        if y != top_label and c > rest:
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
