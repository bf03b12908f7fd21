"""Exhaustive minimax value of the two realizable games.

Independent of the dimension search: the value is computed directly from
the game protocol, with the adversary restricted to realizability-
preserving reveals and the learner ranging over all labels.

States are version-space bitmasks.  Each adversary move is compiled once
from the Game into a sorted tuple of distinct (mask, label) reveals: a
robust move z holds (masks[x][y], y) for every x in inputs[z] and every
label y, and an orientation node holds its two sides.  A reveal with
mask 0 is never legal and one with the full class's mask never shrinks a
state, so both are dropped, and so are moves left empty; equal moves are
kept once.
Robust inputs with the same reveal set thus share one move, and so do
the mirrored nodes ((x0, x1), (a, b)) and ((x1, x0), (b, a)).
The sides of a node are disjoint, so an orientation move is its one or
two kept sides in order, with no set to dedupe them.

One memoized recursion serves the unbounded game (children valued
unbounded) and the horizon-capped game (children valued at one round
less).  A reveal either strictly shrinks the state (the restriction
drops at least the hypotheses inconsistent with it) or leaves it
unchanged.  Reveals that leave the state unchanged are skipped, and the
value stays exact:

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

Halving cap.  No adversary forces more than floor(log2 |V|) mistakes
from state V (Littlestone, 1988):

- Robust game.  On input z the learner predicts V's plurality label at
  z.  A mistake reveals (x, y) with z in U(x) and y not that label, and
  keeps only hypotheses labelling all of U(x), so z too, with y.  Those
  are at most as many as the plurality label's and disjoint from them,
  so at most half of V.
- Orientation game.  The two sides of a node are disjoint, so the
  learner predicts the label of the side with more hypotheses of V, and
  a mistake keeps the other side: at most half of V.
- Realizable reveals never empty V, so after k mistakes
  1 <= |V| / 2^k.

A capped game also loses at most one mistake per round, and no capped
value exceeds the unbounded one: v(V, 0) = 0 <= v(V), and v(V, h) is
the Bellman equation of v(V) with every child valued at h - 1 instead
of unbounded, so v(V, h) <= v(V) follows by induction on h, since the
equation is monotone in its children's values.  So a state's move loop
stops once its best move reaches min(floor(log2 |V|), horizon, v(V)),
the last when the unbounded memo holds V: no later move can be worth
more, and the stored value is still exact.
"""

from collections import defaultdict

from .errors import DomainError, LimitExceeded
from .model import Game, HypothesisClass, PerturbationMap, check_label_mode, compiled

MAX_INSTANCES = 5
MAX_HYPOTHESES = 16


class MinimaxSolver:
    """Game-value solver for one (class, map, game) triple.

    memos[h][mask] is the exact value of state mask at horizon h, with
    h = None for the unbounded game.  Horizon 0 has no memo: every state
    is worth 0 there.
    """

    def __init__(self, hc: HypothesisClass, u: PerturbationMap, game: str):
        if game not in ("robust", "orientation"):
            raise DomainError(f"unknown game {game!r}")
        if hc.instance_count > MAX_INSTANCES or hc.size > MAX_HYPOTHESES:
            raise LimitExceeded(
                f"exhaustive game search is limited to {MAX_INSTANCES} instances "
                f"and {MAX_HYPOTHESES} hypotheses; got {hc.instance_count} and {hc.size}"
            )
        g = compiled(hc, u, Game)
        full, moves = g.full, set()
        if game == "robust":
            kept = [[(m, y) for y, m in enumerate(row) if m and m != full] for row in g.masks]
            for xs in g.inputs:
                move = []  # input z's move: the kept reveals of every x in inputs[z]
                for x in xs:
                    move += kept[x]
                if move:
                    moves.add(tuple(sorted(set(move))))
        else:
            # the sides of a node are disjoint, so two kept sides differ
            for _, (y0, y1), m0, m1 in g.nodes:
                a, b = (m0, y0), (m1, y1)
                if m0 and m0 != full:
                    if m1 and m1 != full:
                        moves.add((a, b) if a < b else (b, a))
                    else:
                        moves.add((a,))
                elif m1 and m1 != full:
                    moves.add((b,))
        self.moves = tuple(sorted(moves))
        self.memos: defaultdict[int | None, dict[int, int]] = defaultdict(dict)

    def value(self, mask: int, horizon: int | None = None) -> int:
        """Optimal forced mistakes from a nonempty version-space mask."""
        if horizon is not None and horizon <= 0:
            return 0
        memo = self.memos[horizon]
        hit = memo.get(mask)
        return self._solve(mask, horizon, memo) if hit is None else hit

    def _solve(self, mask: int, horizon: int | None, memo: dict[int, int]) -> int:
        """Value of a state not yet in memo, the memo of its horizon."""
        cap = mask.bit_count().bit_length() - 1
        child = None
        if horizon is not None:
            # no capped value exceeds the unbounded one (module docstring)
            cap = min(cap, horizon, self.memos[None].get(mask, cap))
            child = horizon - 1
        best = 0
        if cap > 0:
            # a horizon-0 child is worth 0 and is not stored
            child_memo = self.memos[child] if child != 0 else None
            for move in self.moves:
                # top is the best child value and top_label its label, rest
                # the best value of any other label.  Predicting top_label
                # costs max(top, rest + 1); any other label at least top + 1.
                top = rest = -1
                top_label = None
                for t, y in move:
                    sub = mask & t
                    if sub and sub != mask:
                        if child_memo is None:
                            c = 0
                        else:
                            c = child_memo.get(sub)
                            if c is None:
                                c = self._solve(sub, child, child_memo)
                        if y == top_label:
                            if c > top:
                                top = c
                        elif c > top:
                            rest, top, top_label = top, c, y
                        elif c > rest:
                            rest = c
                if top < 0:
                    continue
                mv = top if top > rest else rest + 1
                if mv > best:
                    best = mv
                    if best >= cap:
                        break
        memo[mask] = best
        return best


def optimal_mistake_bound(
    hc: HypothesisClass,
    u: PerturbationMap,
    game: str = "robust",
    multiclass=None,
    horizon: int | None = None,
) -> int:
    """Exact minimax mistake count of the realizable game.

    horizon=None means the unbounded game (its value stabilizes because
    mistakes are bounded); a nonnegative horizon caps the round count.
    """
    check_label_mode(hc, multiclass)
    if horizon is not None and horizon < 0:
        raise DomainError(f"horizon must be nonnegative, got {horizon}")
    solver = compiled(hc, u, MinimaxSolver, game)
    return solver.value((1 << hc.size) - 1, horizon)
