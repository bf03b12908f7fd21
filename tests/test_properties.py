"""Property tests over random small games.

The consistency masks are the package's single source of the robust
loss.  The first properties check them, and the functions derived from
them, against the definitional `adversarial_loss`; the next check the
dimension search and the minimax oracle against plain searches written
here, restriction, and the lifetime of compiled data; the next check the
lazy learner's automaton and the one-replay expert aggregation against
stepwise loops on plain learners; the last checks that scenario files
round-trip.
"""

import gc
import itertools
import math
import weakref

from hypothesis import given, settings
from hypothesis import strategies as st

from robust_online import (
    LEARNER_NAMES,
    AdversarialTree,
    AdversarialTreeNode,
    ExponentialWeightsForecaster,
    GameConfig,
    HypothesisClass,
    OrientationQuery,
    PerturbationFamily,
    PerturbationMap,
    RobustReductionLearner,
    Scenario,
    VersionSpace,
    adversarial_dimension,
    adversarial_loss,
    build_family_experts,
    comparator_loss,
    compatible_pairs,
    derive_rng,
    family_halving_run,
    family_loss_budget,
    full_class,
    horizon_rate,
    identity_map,
    is_shattered,
    lazy_wrap,
    loss_budget_rate,
    mc_family_mistakes,
    mc_regret,
    optimal_mistake_bound,
    parse_scenario,
    random_label_regret_sample,
    restrict,
    serialize_scenario,
    witness_tree,
)
from robust_online.adversaries import orientation_options, robust_anchors
from robust_online.agnostic import hypothesis_losses
from robust_online.dimension import get_engine
from robust_online.learners import LazyRobustAutomaton
from robust_online.model import compiled, consistency_masks, game_nodes
from robust_online.scenario import ADVERSARIES, DEFAULT_LABELS, PROTOCOLS

PROPERTY = settings(max_examples=60, deadline=None, database=None)


@st.composite
def games(draw, max_instances=4, max_labels=3, max_hypotheses=8):
    """(class, map) over at most four instances and eight distinct tables."""
    n = draw(st.integers(1, max_instances))
    labels = draw(st.integers(2, max_labels))
    table = st.tuples(*[st.integers(0, labels - 1)] * n)
    tables = draw(st.lists(table, min_size=1, max_size=max_hypotheses, unique=True))
    sets = draw(st.lists(st.sets(st.integers(0, n - 1)), min_size=n, max_size=n))
    return HypothesisClass.from_tables(tables, labels), PerturbationMap.from_sets(sets)


@st.composite
def search_games(draw, max_hypotheses=16):
    """(class, map) rich enough to give the searches depth 2 and more.

    At least four hypotheses over two to five instances, and most
    perturbation sets hold their own instance, as identity-like maps do.
    """
    n = draw(st.integers(2, 5))
    labels = draw(st.integers(2, 3))
    table = st.tuples(*[st.integers(0, labels - 1)] * n)
    size = draw(st.integers(4, min(max_hypotheses, labels**n)))
    tables = draw(st.lists(table, min_size=size, max_size=size, unique=True))
    sets = []
    for x in range(n):
        s = draw(st.sets(st.integers(0, n - 1), max_size=1))
        sets.append(s | {x} if draw(st.integers(0, 3)) else s)
    return HypothesisClass.from_tables(tables, labels), PerturbationMap.from_sets(sets)


def reference_anchors(u, h):
    anchors = []
    for x in range(u.instance_count):
        seen = {h.table[z] for z in u.forward[x]}
        if len(seen) == 1:
            anchors.append((x, seen.pop()))
    return anchors


def reference_options(hc, u, h, multiclass):
    n = hc.label_count
    label_pairs = (
        [(a, b) for a in range(n) for b in range(n) if a != b] if multiclass else [(0, 1)]
    )
    options = []
    for pair in sorted(compatible_pairs(u)):
        for labels in label_pairs:
            for side in (0, 1):
                if adversarial_loss(h, pair[side], labels[side], u) == 0:
                    options.append((OrientationQuery(pair, labels), side))
    return options


@PROPERTY
@given(games())
def test_masks_agree_with_adversarial_loss(game):
    hc, u = game
    masks = consistency_masks(hc, u)
    for h in hc:
        for x in range(hc.instance_count):
            for y in range(hc.label_count):
                charged = not masks[x][y] >> h.id & 1
                assert charged == adversarial_loss(h, x, y, u)


@PROPERTY
@given(games())
def test_anchors_and_options_match_the_definition(game):
    hc, u = game
    for h in hc:
        assert robust_anchors(hc, u, h) == reference_anchors(u, h)
        for multiclass in (False, True):
            expected = reference_options(hc, u, h, multiclass)
            assert orientation_options(hc, u, h, multiclass) == expected


@PROPERTY
@given(games(), st.data())
def test_hypothesis_losses_match_the_definition(game, data):
    hc, u = game
    pair = st.tuples(
        st.integers(0, hc.instance_count - 1), st.integers(0, hc.label_count - 1)
    )
    rounds = [(x, x, y) for x, y in data.draw(st.lists(pair, max_size=12))]
    expected = [sum(adversarial_loss(h, x, y, u) for _, x, y in rounds) for h in hc]
    assert hypothesis_losses(hc, u, rounds) == expected


@PROPERTY
@given(games(), st.booleans())
def test_witness_tree_is_shattered_and_dimension_is_logarithmic(game, multiclass):
    hc, u = game
    multiclass = multiclass or hc.label_count > 2
    tree = witness_tree(hc, u, multiclass)
    assert tree.depth == adversarial_dimension(hc, u, multiclass)
    assert is_shattered(tree, hc, u)
    assert tree.depth <= math.floor(math.log2(hc.size))


def plain_dimension(nodes):
    """The unpruned recursion: every node of every mask, memoized."""
    memo = {0: -1}

    def dim(mask):
        if mask not in memo:
            memo[mask] = max(
                (
                    1 + min(dim(mask & m0), dim(mask & m1))
                    for _, _, m0, m1 in nodes
                    if mask & m0 and mask & m1
                ),
                default=0,
            )
        return memo[mask]

    return dim, memo


def plain_witness(nodes, dim, mask, depth):
    if depth == 0:
        return None
    for pair, labels, m0, m1 in nodes:
        v0, v1 = mask & m0, mask & m1
        if v0 and v1 and min(dim(v0), dim(v1)) >= depth - 1:
            return AdversarialTreeNode(
                pair,
                labels,
                plain_witness(nodes, dim, v0, depth - 1),
                plain_witness(nodes, dim, v1, depth - 1),
            )
    raise AssertionError("no witness node")


@PROPERTY
@given(search_games(), st.booleans())
def test_pruned_search_matches_the_plain_recursion(game, multiclass):
    hc, u = game
    multiclass = multiclass or hc.label_count > 2
    nodes = game_nodes(hc, u, multiclass)
    dim, memo = plain_dimension(nodes)
    full = (1 << hc.size) - 1
    depth = dim(full)
    assert witness_tree(hc, u, multiclass) == AdversarialTree(
        plain_witness(nodes, dim, full, depth), depth
    )
    engine = get_engine(hc, u, multiclass)
    # every value the pruned search stored is exact ...
    for mask, value in engine._memo.items():
        assert value == dim(mask)
    # ... and so is every value it returns for a mask the plain one visited
    for mask, value in list(memo.items()):
        assert engine.dimension_of_mask(mask) == value


def reference_game_value(hc, u, game, multiclass, horizon):
    """Minimax value that re-runs the whole Bellman equation on every pass."""
    masks = consistency_masks(hc, u)
    labels = range(hc.label_count)
    if game == "robust":
        moves = [
            [(y, masks[x][y]) for x in sorted(u.preimage[z]) for y in labels]
            for z in range(u.instance_count)
        ]
    else:
        moves = [[(y0, m0), (y1, m1)] for _, (y0, y1), m0, m1 in game_nodes(hc, u, multiclass)]
    memo = {}

    def bellman(mask, self_value, h):
        best = 0
        for move in moves:
            legal = [(y, mask & t) for y, t in move if mask & t]
            if not legal:
                continue
            costs = []
            for pred in labels:
                worst = 0
                for y, sub in legal:
                    if h is not None:
                        rest = value(sub, h - 1)
                    elif sub == mask:
                        rest = self_value
                    else:
                        rest = value(sub, None)
                    worst = max(worst, int(y != pred) + rest)
                costs.append(worst)
            best = max(best, min(costs))
        return best

    def value(mask, h):
        if h is not None and h <= 0:
            return 0
        if (mask, h) not in memo:
            v = 0
            while (nv := bellman(mask, v, h)) != v:
                v = nv
            memo[mask, h] = v
        return memo[mask, h]

    return value((1 << hc.size) - 1, horizon)


@PROPERTY
@given(search_games(max_hypotheses=12), st.booleans())
def test_oracle_matches_the_full_bellman_iteration(game, multiclass):
    hc, u = game
    multiclass = multiclass or hc.label_count > 2
    for name in ("robust", "orientation"):
        for horizon in (None, 0, 1, 2, 3, 4):
            assert optimal_mistake_bound(hc, u, name, multiclass, horizon) == (
                reference_game_value(hc, u, name, multiclass, horizon)
            )
        # the oracle skips a reveal that leaves the state unchanged, which is
        # exact in the capped game because the value grows with the horizon
        v = optimal_mistake_bound(hc, u, name, multiclass)
        capped = [optimal_mistake_bound(hc, u, name, multiclass, h) for h in range(v + 2)]
        assert capped == sorted(capped)
        assert max(capped) <= v
        assert capped[v] == v


@PROPERTY
@given(games(), st.data())
def test_restrict_is_monotone(game, data):
    hc, u = game
    full = (1 << hc.size) - 1
    outer = data.draw(st.integers(0, full))
    inner = outer & data.draw(st.integers(0, full))
    x = data.draw(st.integers(0, hc.instance_count - 1))
    y = data.draw(st.integers(0, hc.label_count - 1))
    small = restrict(VersionSpace(hc, inner), x, y, u).mask
    big = restrict(VersionSpace(hc, outer), x, y, u).mask
    assert small & ~big == 0
    assert big & ~outer == 0


def test_compiled_data_is_freed_with_its_class():
    hc, u = full_class(3), identity_map(3)
    adversarial_dimension(hc, u)
    witness_tree(hc, u)
    optimal_mistake_bound(hc, u, "orientation")
    restrict(VersionSpace.full(hc), 0, 1, u)
    # class -> store -> automaton -> learner -> class is a cycle
    random_label_regret_sample(hc, u, 8, seed=0)
    ref = weakref.ref(hc)
    del hc
    gc.collect()
    assert ref() is None


def robust_rounds(data, n, max_size=6, labels=2):
    """Arbitrary robust rounds (z, x, y); tolerant experts accept any."""
    point = st.integers(0, n - 1)
    triple = st.tuples(point, point, st.integers(0, labels - 1))
    return data.draw(st.lists(triple, min_size=1, max_size=max_size))


@PROPERTY
@given(games(max_labels=2), st.data())
def test_automaton_steps_like_the_lazy_learner(game, data):
    """Two learners walk one automaton in lockstep, as subset experts do:
    the first is shown every round, the second a drawn subset, so it also
    runs on memoized entries.  A round may step them without asking for
    predictions.  Reveals are arbitrary: z may lie outside U(x), the
    version space may empty and a mistake may find no counterpart."""
    hc, u = game
    auto = compiled(hc, u, LazyRobustAutomaton)
    plain = [
        lazy_wrap(RobustReductionLearner(hc, u, strict=False, empty_prediction=0))
        for _ in range(2)
    ]
    ids = [0, 0]
    for z, x, y in robust_rounds(data, hc.instance_count, 10, hc.label_count):
        if data.draw(st.booleans()):
            for i in (0, 1):
                assert auto.predict(ids[i], z) == plain[i].predict(z)
        for i in (0, 1) if data.draw(st.booleans()) else (0,):
            ids[i] = auto.step(ids[i], z, x, y)
            plain[i].update(z, x, y)
    for i in (0, 1):
        assert auto.states[ids[i]] == (plain[i].inner.mask, plain[i].inner.orientation.mask)


class PlainSubsetExpert:
    """A_J on a plain lazy learner, shown only the rounds in J."""

    def __init__(self, indices, hc, u):
        self.indices = indices
        self.learner = lazy_wrap(RobustReductionLearner(hc, u, strict=False, empty_prediction=0))
        self.round = 0

    def predict(self, z):
        return self.learner.predict(z)

    def update(self, z, x, y):
        if self.round in self.indices:
            self.learner.update(z, x, y)
        self.round += 1


def stepwise_ewa(experts, rounds, rate, rng):
    """(mistakes, per-expert mistakes) of a forecaster stepped round by round."""
    fore = ExponentialWeightsForecaster(len(experts), rate)
    mistakes = 0
    expert_mistakes = [0] * len(experts)
    for z, x, y in rounds:
        preds = [e.predict(z) for e in experts]
        mistakes += fore.predict(preds, rng) != y
        losses = [int(p != y) for p in preds]
        expert_mistakes = [m + l for m, l in zip(expert_mistakes, losses)]
        fore.update(losses)
        for e in experts:
            e.update(z, x, y)
    return mistakes, expert_mistakes


def stepwise_halving(experts, rounds):
    """(mistakes per phase, alive count) of phased halving stepped round by round."""
    alive = set(range(len(experts)))
    phases = [0]
    for z, x, y in rounds:
        preds = [e.predict(z) for e in experts]
        ones = sum(preds[i] for i in alive)
        phases[-1] += int(ones >= len(alive) - ones) != y
        alive = {i for i in alive if preds[i] == y}
        if not alive:
            alive = set(range(len(experts)))
            phases.append(0)
        for e in experts:
            e.update(z, x, y)
    return phases, len(alive)


@PROPERTY
@given(games(max_labels=2), st.data(), st.integers(0, 2**16))
def test_agnostic_replay_equals_the_stepwise_forecaster(game, data, seed):
    hc, u = game
    rounds = robust_rounds(data, hc.instance_count)
    dim = adversarial_dimension(hc, u)
    experts = [
        PlainSubsetExpert(combo, hc, u)
        for k in range(min(dim, len(rounds)) + 1)
        for combo in itertools.combinations(range(len(rounds)), k)
    ]
    rate = horizon_rate(len(experts), len(rounds))
    mistakes, _ = stepwise_ewa(experts, rounds, rate, derive_rng(seed, "agnostic"))
    best, _ = comparator_loss(hc, u, rounds)
    assert mc_regret(hc, u, rounds, seeds=[seed])["values"] == [mistakes - best]


@st.composite
def families(draw):
    """(binary class, family of one to three maps on its instances)."""
    hc, u = draw(games(max_labels=2))
    n = hc.instance_count
    sets = st.lists(st.sets(st.integers(0, n - 1)), min_size=n, max_size=n)
    others = draw(st.lists(sets, max_size=2))
    members = (u,) + tuple(PerturbationMap.from_sets(m) for m in others)
    return hc, PerturbationFamily(members, draw(st.integers(0, len(members) - 1)))


@PROPERTY
@given(families(), st.data(), st.integers(0, 2**16))
def test_family_replay_equals_the_stepwise_loops(game, data, seed):
    hc, family = game
    rounds = robust_rounds(data, hc.instance_count)
    rate = loss_budget_rate(len(family), family_loss_budget(hc, family))
    rng = derive_rng(seed, "family-ewa")
    experts = build_family_experts(hc, family)
    mistakes, expert_mistakes = stepwise_ewa(experts, rounds, rate, rng)
    assert mc_family_mistakes(hc, family, rounds, seeds=[seed])["values"] == [mistakes]

    halving = family_halving_run(hc, family, rounds)
    phases, alive = stepwise_halving(build_family_experts(hc, family), rounds)
    assert (halving.phase_mistakes, halving.alive_count) == (phases, alive)
    assert halving.expert_mistakes == expert_mistakes


NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_.-]{0,4}", fullmatch=True)


@st.composite
def scenarios(draw):
    """Named scenarios with 2-4 labels, several maps and any GAME settings.

    Two labels may keep the names a file without a `labels:` line gets.
    """
    n = draw(st.integers(1, 4))
    labels = draw(st.integers(2, 4))
    table = st.tuples(*[st.integers(0, labels - 1)] * n)
    tables = draw(st.lists(table, min_size=1, max_size=6, unique=True))
    k = draw(st.integers(2, 4))
    maps = tuple(
        PerturbationMap.from_sets(
            draw(st.lists(st.sets(st.integers(0, n - 1)), min_size=n, max_size=n))
        )
        for _ in range(k)
    )

    def names(size):
        return tuple(draw(st.lists(NAMES, min_size=size, max_size=size, unique=True)))

    perturbation_names = names(k)
    return Scenario(
        instance_names=names(n),
        label_names=(
            DEFAULT_LABELS if labels == 2 and draw(st.booleans()) else names(labels)
        ),
        hypothesis_names=names(len(tables)),
        hypotheses=HypothesisClass.from_tables(tables, labels),
        perturbation_names=perturbation_names,
        perturbations=maps,
        truth_name=draw(st.sampled_from(perturbation_names)),
        game=GameConfig(
            protocol=draw(st.sampled_from(PROTOCOLS)),
            horizon=draw(st.integers(1, 100)),
            seed=draw(st.integers(0, 2**32)),
            learner=draw(st.sampled_from(LEARNER_NAMES)),
            adversary=draw(st.sampled_from(ADVERSARIES)),
            corruptions=draw(st.integers(0, 5)),
        ),
    )


@PROPERTY
@given(scenarios())
def test_scenario_text_round_trips(sc):
    assert parse_scenario(serialize_scenario(sc)) == sc
