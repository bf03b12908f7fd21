"""Property tests over random small games.

The consistency masks are the package's single source of the robust loss.
The first properties check the Game a (class, map) compiles its moves
into against the forward sets, then the masks and the functions derived
from them against the definitional `adversarial_loss` of tests/reference.py, and the realizable
generators against a plain loop with one scalar draw per choice; the next
check the dimension search, the classic dimension, and the minimax
oracle's values and move table against plain searches written here,
restriction, and the lifetime of compiled data; the next
check the package's robust reduction round by round against the object
reduction of tests/reference.py, the shared prediction memo against fresh
classes, that at most one
label qualifies, the worst-case walk of the strict optimal learners
against a plain search over reveal sequences and the strict games of the
runner against the walk, emptied states on the shared state table, the lazy
learner's automaton, its self-loops on correct rounds, that an emptied
state is absorbing, the random-label probe and the family experts' id
replay against stepwise loops on plain learners, the subset experts' group replay against a pool of the
reference's plain experts, and the analysis expert's mistakes in
decomposition_gap against a plain expert; then scenario files
round-trip, the corpus generator's block-drawn tables match one draw per
row, and derived seed sequences match a construction from a list of
digest words.
"""

import gc
import hashlib
import itertools
import math
import weakref

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from robust_online import (
    LEARNER_NAMES,
    AdversarialTree,
    AdversarialTreeNode,
    CorpusParams,
    GameConfig,
    HypothesisClass,
    OrientationQuery,
    PerturbationFamily,
    PerturbationMap,
    RobustReductionLearner,
    Scenario,
    ScriptedOrientationAdversary,
    ScriptedRobustAdversary,
    SoaOrientationLearner,
    VersionSpace,
    adversarial_dimension,
    classic_littlestone_dimension,
    comparator_loss,
    corrupt_labels,
    decomposition_gap,
    derive_rng,
    derive_seed_sequence,
    expected_regret,
    family_expected_mistakes,
    family_halving_run,
    family_loss_budget,
    full_class,
    generate_corpus,
    generate_family_scenarios,
    horizon_rate,
    identity_map,
    is_shattered,
    loss_budget_rate,
    make_learner,
    mc_family_mistakes,
    mc_regret,
    optimal_mistake_bound,
    parse_scenario,
    random_label_regret_sample,
    realizable_orientation_rounds,
    realizable_robust_rounds,
    restrict,
    run_game,
    serialize_scenario,
    total_map,
    try_parse_scenario,
    witness_tree,
    worst_case_mistakes,
)
from robust_online.adversaries import OrientationChoices, RobustChoices
from robust_online.agnostic import hypothesis_losses
from robust_online.dimension import get_engine
from robust_online.errors import ProtocolViolation, SearchInvariantError
from robust_online.forecaster import weight_trajectory
from robust_online.learners import LazyRobustAutomaton, LazyRobustLearner
from robust_online import model
from robust_online.model import compiled, consistency_masks
from robust_online.oracle import MinimaxSolver
from robust_online.scenario import ADVERSARIES, DEFAULT_LABELS, PROTOCOLS
from robust_online.uncertain import HalvingReport

from reference import (
    PlainReductionLearner,
    PlainSubsetExpert,
    adversarial_loss,
    agnostic_learner,
    build_family_experts,
    compatible_pairs,
    enumerated_expected_mistakes,
    expert_matrices,
    one_row_per_call_tables,
    plain_subset_pool,
    plain_worst_case,
    preimage,
    stepwise_ewa,
)
from reference import try_parse_scenario as reference_parse
from robust_online.scenario import _random_tables

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


def reference_options(hc, u, h):
    n = hc.label_count
    label_pairs = [(a, b) for a in range(n) for b in range(n) if a != b] if n > 2 else [(0, 1)]
    options = []
    for pair in sorted(compatible_pairs(u)):
        for labels in label_pairs:
            for side in (0, 1):
                if adversarial_loss(h, pair[side], labels[side], u) == 0:
                    options.append((OrientationQuery(pair, labels), side))
    return options


@PROPERTY
@given(games())
def test_the_game_reads_its_moves_off_the_forward_sets(game):
    """The Game of a (class, map) against its moves derived here from U:
    the inputs are the preimages, and the nodes are every compatible pair
    with every label pair of the class's mode, in lexicographic order.
    Both are built on their first read, and the masks are the store's
    consistency masks."""
    hc, u = game
    g = model.game(hc, u)
    assert "nodes" not in vars(g) and "inputs" not in vars(g)
    assert model.game(hc, u) is g and consistency_masks(hc, u) is g.masks
    assert g.inputs == tuple(tuple(preimage(u, z)) for z in range(u.instance_count))
    n, masks = hc.label_count, g.masks
    label_pairs = list(itertools.permutations(range(n), 2)) if n > 2 else [(0, 1)]
    pairs = compatible_pairs(u)
    nodes = [(p, ys, masks[p[0]][ys[0]], masks[p[1]][ys[1]]) for p in pairs for ys in label_pairs]
    assert g.nodes == tuple(sorted(nodes, key=lambda node: node[:2]))


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
    anchors = compiled(hc, u, RobustChoices)
    for h in hc:
        assert [divmod(c, hc.label_count) for c in anchors.codes(h.id)] == reference_anchors(u, h)
        table = compiled(hc, u, OrientationChoices)
        options = [(table.queries[c >> 1], c & 1) for c in table.codes(h.id)]
        assert options == reference_options(hc, u, h)


def reference_rounds(hc, rng, length, choices, draw):
    """The plain generator loop: shuffle the hypothesis ids, take the first
    hypothesis with playable choices, then draw(choices, rng) per round
    with one scalar draw per choice made."""
    order, hypotheses = list(range(hc.size)), list(hc)
    rng.shuffle(order)
    found = next((c for c in (choices(hypotheses[i]) for i in order) if c), [])
    return [draw(found, rng) for _ in range(length)] if found else []


def draw_robust(u):
    def draw(anchors, rng):
        x, y = anchors[int(rng.integers(len(anchors)))]
        zs = sorted(u.forward[x])
        return zs[int(rng.integers(len(zs)))], x, y

    return draw


def draw_option(options, rng):
    return options[int(rng.integers(len(options)))]


@PROPERTY
@given(games(), st.integers(0, 30), st.integers(0, 2**32 - 1))
# 1,024 hypotheses, of which only the two constants can be played under
# the total map, so the shuffled order is walked a third of the way on average
@example((full_class(10), total_map(10)), 5, 3)
@example((full_class(10), identity_map(10)), 5, 4)
# singleton and two-element U(x) sets: anchors with and without a z draw,
# so the robust generator's first word block runs out and is refilled
@example((full_class(4), PerturbationMap.from_sets([{0}, {1, 2}, {2}, {3, 0}])), 30, 5)
def test_generators_draw_like_the_plain_loop(game, length, seed):
    """Coded tables, skipped one-way draws, the orientation game's one
    batched draw and the robust game's decoded word blocks give the plain
    loop's rounds and leave the bit generator in the plain loop's state."""
    hc, u = game
    cases = (
        (
            lambda rng: realizable_robust_rounds(hc, u, length, rng),
            lambda h: reference_anchors(u, h),
            draw_robust(u),
        ),
        (
            lambda rng: realizable_orientation_rounds(hc, u, length, rng),
            lambda h: reference_options(hc, u, h),
            draw_option,
        ),
    )
    for ours, choices, draw in cases:
        rng, plain = np.random.default_rng(seed), np.random.default_rng(seed)
        assert ours(rng) == reference_rounds(hc, plain, length, choices, draw)
        assert rng.bit_generator.state == plain.bit_generator.state


def pinned_games():
    for labels in (2, 3):
        for sc in generate_corpus(CorpusParams(count=40, seed=11, label_count=labels)):
            yield sc.hypotheses, sc.truth
    for n in (5, 6):
        ring = PerturbationMap.from_sets([{(x - 1) % n, x, (x + 1) % n} for x in range(n)])
        yield full_class(n), ring
        yield full_class(n), total_map(n)
    yield full_class(3, 3), total_map(3)


def test_generated_rounds_match_the_pinned_digest():
    """The rounds of both generators, and the next draw after each call,
    over a fixed corpus.  The digest was recorded with one scalar draw per
    choice, so it also checks the batched draw on every NumPy in CI."""
    digest = hashlib.sha256()
    for i, (hc, u) in enumerate(pinned_games()):
        for length in (0, 1, 4, 10, 30):
            rng = derive_rng(11, "pinned-rounds", i, length)
            robust = realizable_robust_rounds(hc, u, length, rng)
            orient = realizable_orientation_rounds(hc, u, length, rng)
            after = int(rng.integers(2**32))
            sides = [(q.pair, q.labels, side) for q, side in orient]
            digest.update(repr((robust, sides, after)).encode())
    assert digest.hexdigest() == (
        "5a1902e0562653b4854dc2ace9d7ec773df4c0c7be4a79a4a86009a3fd4e26c1"
    )


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
@given(games())
def test_witness_tree_is_shattered_and_dimension_is_logarithmic(game):
    hc, u = game
    tree = witness_tree(hc, u)
    assert tree.depth == adversarial_dimension(hc, u)
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
@given(search_games())
def test_pruned_search_matches_the_plain_recursion(game):
    """The engine's search and witness against the unpruned recursion over
    the class's nodes.  On two labels the nodes carry only (0, 1); the
    recursion over the nodes of both label orders, the multiclass nodes of
    the same class, gives the same dimension, as the paper's multiclass
    dimension must on a binary class."""
    hc, u = game
    nodes = model.game(hc, u).nodes
    dim, memo = plain_dimension(nodes)
    full = (1 << hc.size) - 1
    depth = dim(full)
    if hc.label_count == 2:
        masks = consistency_masks(hc, u)
        both_orders = [
            (pair, labels, masks[pair[0]][labels[0]], masks[pair[1]][labels[1]])
            for pair, _, _, _ in nodes
            for labels in ((0, 1), (1, 0))
        ]
        assert plain_dimension(both_orders)[0](full) == depth
    assert witness_tree(hc, u) == AdversarialTree(plain_witness(nodes, dim, full, depth), depth)
    engine = get_engine(hc, u)
    # the search runs over the first node of each unordered pair of nonempty sides
    firsts = {}
    for node in nodes:
        if node[2] and node[3]:
            firsts.setdefault(frozenset(node[2:]), node)
    assert engine.splits == tuple(firsts.values())
    # every value the pruned search stored is exact ...
    for mask, value in engine._memo.items():
        assert value == dim(mask)
    # ... and so is every value it returns for a mask the plain one visited
    for mask, value in list(memo.items()):
        assert engine.dimension_of_mask(mask) == value


def plain_classic_dimension(hc):
    """The classic recursion over frozensets of raw label tables."""
    n = hc.instance_count
    memo = {}

    def dim(tables):
        if tables not in memo:
            best = 0
            for x in range(n):
                zeros = frozenset(t for t in tables if t[x] == 0)
                if zeros and len(zeros) != len(tables):
                    best = max(best, 1 + min(dim(zeros), dim(tables - zeros)))
            memo[tables] = best
        return memo[tables]

    return dim(frozenset(h.table for h in hc))


@st.composite
def binary_classes(draw, max_instances=6, max_tables=32):
    n = draw(st.integers(1, max_instances))
    table = st.tuples(*[st.integers(0, 1)] * n)
    size = min(max_tables, 2**n)
    return HypothesisClass.from_tables(
        draw(st.lists(table, min_size=1, max_size=size, unique=True))
    )


@PROPERTY
@given(binary_classes())
def test_classic_dimension_matches_the_table_set_recursion(hc):
    assert classic_littlestone_dimension(hc) == plain_classic_dimension(hc)


def reference_game_values(hc, u, game):
    """value(mask, h): minimax value that re-runs the whole Bellman equation on every pass."""
    masks = consistency_masks(hc, u)
    labels = range(hc.label_count)
    if game == "robust":
        moves = [
            [(y, masks[x][y]) for x in preimage(u, z) for y in labels]
            for z in range(u.instance_count)
        ]
    else:
        moves = [[(y0, m0), (y1, m1)] for _, (y0, y1), m0, m1 in model.game(hc, u).nodes]
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

    return value


def reference_game_value(hc, u, game, horizon):
    return reference_game_values(hc, u, game)((1 << hc.size) - 1, horizon)


@PROPERTY
@given(search_games(max_hypotheses=12))
def test_oracle_matches_the_full_bellman_iteration(game):
    hc, u = game
    for name in ("robust", "orientation"):
        for horizon in (None, 0, 1, 2, 3, 4):
            assert optimal_mistake_bound(hc, u, name, horizon=horizon) == (
                reference_game_value(hc, u, name, horizon)
            )
        # the oracle skips a reveal that leaves the state unchanged, which is
        # exact in the capped game because the value grows with the horizon
        v = optimal_mistake_bound(hc, u, name)
        capped = [optimal_mistake_bound(hc, u, name, horizon=h) for h in range(v + 2)]
        assert capped == sorted(capped)
        assert max(capped) <= v
        assert capped[v] == v


@PROPERTY
@given(search_games(max_hypotheses=12))
def test_every_oracle_memo_entry_is_its_state_value(game):
    hc, u = game
    full = (1 << hc.size) - 1
    horizons = (None, 1, 2, 3, 4)
    for name in ("robust", "orientation"):
        for horizon in horizons:
            optimal_mistake_bound(hc, u, name, horizon=horizon)
        # the halving cap stops a state's move loop early, but never stores
        # a value short of the state's own
        solver = compiled(hc, u, MinimaxSolver, name)
        assert all(full in solver.memos[h] for h in horizons)
        value = reference_game_values(hc, u, name)
        for horizon, memo in solver.memos.items():
            for mask, v in memo.items():
                assert v == value(mask, horizon)


def reference_moves(hc, u, game):
    """The oracle's move table built from every input and every node.

    Each raw move is filtered and sorted on its own, with no dedupe of
    equal inputs or mirrored nodes before that.
    """
    masks = consistency_masks(hc, u)
    full = (1 << hc.size) - 1
    if game == "robust":
        raw = [
            [(masks[x][y], y) for x in preimage(u, z) for y in range(hc.label_count)]
            for z in range(u.instance_count)
        ]
    else:
        raw = [[(m0, y0), (m1, y1)] for _, (y0, y1), m0, m1 in model.game(hc, u).nodes]
    moves = {tuple(sorted({(m, y) for m, y in move if m and m != full})) for move in raw}
    moves.discard(())
    return tuple(sorted(moves))


@PROPERTY
@given(games(max_instances=5, max_hypotheses=16))
def test_oracle_moves_match_the_per_input_and_per_node_table(game):
    hc, u = game
    for name in ("robust", "orientation"):
        assert MinimaxSolver(hc, u, name).moves == reference_moves(hc, u, name)


@PROPERTY
@given(search_games(max_hypotheses=12))
def test_capped_values_do_not_depend_on_a_filled_unbounded_memo(game):
    """A capped state's cap also reads the unbounded memo; that cut changes no value."""
    hc, u = game
    full = (1 << hc.size) - 1
    for name in ("robust", "orientation"):
        fresh = MinimaxSolver(hc, u, name)
        primed = MinimaxSolver(hc, u, name)
        primed.value(full)
        for horizon in (1, 2, 3, 4):
            assert primed.value(full, horizon) == fresh.value(full, horizon)
            for mask, v in primed.memos[horizon].items():
                assert v == fresh.value(mask, horizon)


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
    # class -> store -> automaton -> context -> class is a cycle
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
    plain = [agnostic_learner(hc, u) for _ in range(2)]
    ids = [0, 0]
    for z, x, y in robust_rounds(data, hc.instance_count, 10, hc.label_count):
        if data.draw(st.booleans()):
            for i in (0, 1):
                assert auto.predict(ids[i], z) == plain[i].predict(z)
        for i in (0, 1) if data.draw(st.booleans()) else (0,):
            ids[i] = auto.step(ids[i], z, x, y)
            plain[i].update(z, x, y)
    for i in (0, 1):
        assert auto.ctx.states[ids[i]] == (plain[i].inner.mask, plain[i].inner.orientation.mask)


def fresh_copy(hc):
    """The class again, with an empty compiled store."""
    return HypothesisClass.from_tables([h.table for h in hc], hc.label_count)


def update_error(learner, z, x, y):
    """(type, message) of what learner.update raises, or None."""
    try:
        learner.update(z, x, y)
    except (ProtocolViolation, SearchInvariantError) as err:
        return type(err), str(err)
    return None


@PROPERTY
@given(games(), st.booleans(), st.data())
def test_the_reduction_steps_like_the_object_reference(game, strict, data):
    """Round by round, the package learner (a state id on its context)
    predicts, logs and moves like the object reduction of the reference,
    which decides every prediction afresh on a fresh copy of the class.
    Each round is the next of a realizable sequence or an arbitrary
    reveal, so z may lie outside U(x), the version space may empty and a
    mistake may find no counterpart.  A strict learner raises the same
    exception as the reference on the same round, and keeps its state."""
    hc, u = game
    learner = RobustReductionLearner(hc, u, strict=strict)
    reference = PlainReductionLearner(fresh_copy(hc), u, strict)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    realizable = realizable_robust_rounds(hc, u, 12, rng)
    arbitrary = robust_rounds(data, hc.instance_count, 12, hc.label_count)
    for t in range(12):
        pick = realizable if realizable and data.draw(st.booleans()) else arbitrary
        z, x, y = pick[t % len(pick)]
        assert learner.predict(z) == reference.predict(z)
        before = learner.s
        error = update_error(learner, z, x, y)
        assert error == update_error(reference, z, x, y)
        assert learner.events == reference.events
        if error is not None:
            assert learner.s == before
            break
        assert learner.ctx.states[learner.s] == (reference.mask, reference.orientation.mask)


@PROPERTY
@given(games(), st.data())
def test_shared_prediction_memo_matches_a_fresh_class(game, data):
    """Robust learners that share a class's prediction memo, interleaved on
    different sequences, predict, log and move like learners on fresh
    copies of the class, whose memos start empty.  A third learner has
    filled the shared memo on another realizable sequence first.  The
    strict learner plays a realizable sequence; the tolerant one a
    corrupted one, so it may also empty its version space and miss
    counterparts."""
    hc, u = game
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    warm_up, realizable, corrupted = (realizable_robust_rounds(hc, u, 16, rng) for _ in range(3))
    corrupted = corrupt_labels(corrupted, 3, hc.label_count, rng)
    warm = RobustReductionLearner(hc, u)
    for z, x, y in warm_up:
        warm.predict(z)
        warm.update(z, x, y)
    pairs = [
        [RobustReductionLearner(c, u, strict=strict) for c in (hc, fresh_copy(hc))]
        for strict in (True, False)
    ]
    sequences = [list(realizable), list(corrupted)]
    order = data.draw(st.permutations([0] * len(realizable) + [1] * len(corrupted)))
    for i in order:
        z, x, y = sequences[i].pop(0)
        shared, fresh = pairs[i]
        assert shared.predict(z) == fresh.predict(z)
        shared.update(z, x, y)
        fresh.update(z, x, y)
        assert shared.events == fresh.events
        assert shared.ctx.states[shared.s] == fresh.ctx.states[fresh.s]
    # Arbitrary states interned directly: the same robust mask with
    # different orientation masks must not share a prediction.  Each
    # reference is the object reduction, with no memo, on a fresh copy.
    shared = pairs[1][0]
    full = (1 << hc.size) - 1
    mask = data.draw(st.integers(0, full))
    for _ in range(data.draw(st.integers(1, 8))):
        orientation_mask = data.draw(st.integers(0, full))
        z = data.draw(st.integers(0, hc.instance_count - 1))
        reference = PlainReductionLearner(fresh_copy(hc), u, strict=False)
        reference.mask, reference.orientation.mask = mask, orientation_mask
        shared.s = shared.ctx.state(mask, orientation_mask)
        assert shared.predict(z) == reference.predict(z)


@PROPERTY
@given(games(), st.data())
def test_at_most_one_label_qualifies(game, data):
    """In any state and on any input, at most one label has a candidate
    the SOA orientation learner orients toward it against every candidate
    of every other label, and the reduction predicts that label or, with
    none, the no-winner default."""
    hc, u = game
    learner = RobustReductionLearner(hc, u)
    reference = PlainReductionLearner(fresh_copy(hc), u)
    full = (1 << hc.size) - 1
    reference.mask = data.draw(st.integers(0, full))
    reference.orientation.mask = data.draw(st.integers(0, full))
    learner.s = learner.ctx.state(reference.mask, reference.orientation.mask)
    for z in range(hc.instance_count):
        cands = reference.candidate_sets(z)
        qualifying = [
            y
            for y, py in enumerate(cands)
            if any(
                all(
                    SoaOrientationLearner.predict(
                        reference.orientation, OrientationQuery((a, b), (y, y2))
                    )
                    == y
                    for y2, p2 in enumerate(cands)
                    if y2 != y
                    for b in p2
                )
                for a in py
            )
        ]
        assert len(qualifying) <= 1
        assert learner.predict(z) == (qualifying or [0 if hc.label_count > 2 else 1])[0]


@PROPERTY
@given(games(max_instances=5, max_hypotheses=12), st.sampled_from(("robust", "orientation")))
@example((full_class(5), identity_map(5)), "robust")
@example((full_class(5), identity_map(5)), "orientation")
@example((full_class(2, 3), identity_map(2)), "robust")
def test_the_worst_case_walk_matches_a_plain_search(game, protocol):
    """The memoized longest path over the strict optimal learner's states
    equals the reference's search over every realizable reveal sequence,
    which replays each prefix on fresh learner objects of a fresh copy of
    the class."""
    hc, u = game
    worst = worst_case_mistakes(hc, u, protocol)
    assert worst == plain_worst_case(fresh_copy(hc), u, protocol)


def test_the_full_class_worst_case_is_its_size():
    for n in range(1, 6):
        for protocol in ("robust", "orientation"):
            assert worst_case_mistakes(full_class(n), identity_map(n), protocol) == n


@PROPERTY
@given(games(max_instances=5, max_hypotheses=12), st.integers(0, 2**32 - 1))
@example((full_class(5), identity_map(5)), 0)
@example((full_class(2, 3), total_map(2)), 1)
def test_realizable_games_stay_within_the_worst_case(game, seed):
    """run_game plays the strict optimal learner against scripted
    realizable sequences of both games without raising, and its mistakes
    stay within the walk's worst case; the dimension it tracks never
    rises.  The walk does not run the runner, the scripted adversaries or
    their protocol checks, so this keeps them under test."""
    hc, u = game
    rng = np.random.default_rng(seed)
    robust = realizable_robust_rounds(hc, u, 20, rng)
    orientation = realizable_orientation_rounds(hc, u, 20, rng)
    for protocol, adversary in (
        ("robust", ScriptedRobustAdversary(robust)),
        ("orientation", ScriptedOrientationAdversary(orientation)),
    ):
        learner = make_learner("optimal", protocol, hc, u)
        played, trace = run_game(hc, u, learner, adversary, 20, track_dimension=True)
        assert len(played) == len(robust if protocol == "robust" else orientation)
        assert sum(r.loss for r in played) <= worst_case_mistakes(hc, u, protocol)
        assert trace == sorted(trace, reverse=True)


class AutomatonWalk:
    """A state id on the (class, map)'s lazy automaton, stepped every round."""

    def __init__(self, hc, u):
        self.automaton = compiled(hc, u, LazyRobustAutomaton)
        self.state = 0

    def predict(self, z):
        return self.automaton.predict(self.state, z)

    def update(self, z, x, y):
        self.state = self.automaton.step(self.state, z, x, y)


def robust_walkers(hc, u):
    """A lazy tolerant learner, the reference's agnostic learner (which
    predicts 0 once emptied), and an automaton walk, all on the class hc."""
    return [
        LazyRobustLearner(RobustReductionLearner(hc, u, strict=False)),
        agnostic_learner(hc, u),
        AutomatonWalk(hc, u),
    ]


@PROPERTY
@given(games(max_labels=2), st.lists(st.tuples(*[st.integers(0, 3)] * 3), min_size=1, max_size=10))
@example(
    game=(HypothesisClass.from_tables([(0, 0), (1, 1)]), identity_map(2)),
    rounds=[(0, 0, 1), (0, 0, 0), (0, 0, 0)],
)
def test_an_emptied_state_predicts_0_on_the_shared_table(game, rounds):
    """The walkers share the class's state table: the plain tolerant
    learner stores its no-winner label 1 for a state whose robust mask is
    empty, and the automaton and the agnostic learner, reaching that state
    on the same reveals, must still predict 0.  Each round the plain
    learner predicts first; every walker must predict like its twin alone
    on a fresh copy of the class.  The example empties the version space
    on its second round."""
    hc, u = game
    n = hc.instance_count
    rounds = [(z % n, x % n, y % 2) for z, x, y in rounds]
    shared = robust_walkers(hc, u)
    alone = [robust_walkers(fresh_copy(hc), u)[i] for i in range(3)]
    for z, x, y in rounds:
        for walker, twin in zip(shared, alone):
            assert walker.predict(z) == twin.predict(z)
            walker.update(z, x, y)
            twin.update(z, x, y)


@PROPERTY
@given(games(max_labels=2), st.data())
def test_a_correct_round_is_a_self_loop(game, data):
    """The lazy wrapper updates only on a mistake, so at every state a
    walk reaches, revealing the predicted label leaves the state as it is,
    whatever the revealed input.  Walks use arbitrary reveals, as above."""
    hc, u = game
    auto = compiled(hc, u, LazyRobustAutomaton)
    s, reached = 0, {0}
    for z, x, y in robust_rounds(data, hc.instance_count, 10, hc.label_count):
        s = auto.step(s, z, x, y)
        reached.add(s)
    for s in reached:
        for z in range(hc.instance_count):
            p = auto.predict(s, z)
            for x in range(hc.instance_count):
                assert auto.step(s, z, x, p) == s


@PROPERTY
@given(games(max_labels=2), st.lists(st.tuples(*[st.integers(0, 3)] * 3), min_size=1, max_size=10))
@example(
    game=(HypothesisClass.from_tables([(0, 0), (1, 1)]), identity_map(2)),
    rounds=[(0, 0, 1), (0, 0, 0)],
)
def test_an_emptied_state_is_absorbing(game, rounds):
    """From every emptied state that walks on the context and on the lazy
    automaton reach, every reveal, z outside U(x) included, is a
    self-loop of both; a tolerant learner on a fresh copy, which logs
    events and so takes the full step, and the object reference, each
    loaded with that state and shown the reveal, keep both its masks, so
    the context's shortcut is the update's result; and no emptied state
    enters the memo.  The example empties the version space on its
    second round."""
    hc, u = game
    n = hc.instance_count
    auto = compiled(hc, u, LazyRobustAutomaton)
    ctx = auto.ctx
    reached = {0}
    for walk in (ctx.step, auto.step):
        s = 0
        for z, x, y in rounds:
            s = walk(s, z % n, x % n, y % 2)
            reached.add(s)
    learner = RobustReductionLearner(fresh_copy(hc), u, strict=False)
    reference = PlainReductionLearner(fresh_copy(hc), u, strict=False)
    for s in reached:
        if ctx.states[s][0]:
            continue
        for z in range(n):
            for x in range(n):
                for y in (0, 1):
                    assert ctx.step(s, z, x, y) == s
                    assert auto.step(s, z, x, y) == s
                    learner.s = learner.ctx.state(*ctx.states[s])
                    learner.update(z, x, y)
                    assert learner.ctx.states[learner.s] == ctx.states[s]
                    reference.mask, reference.orientation.mask = ctx.states[s]
                    reference.update(z, x, y)
                    assert (reference.mask, reference.orientation.mask) == ctx.states[s]
    assert all(ctx.states[key // n][0] for key in ctx.predictions)


@PROPERTY
@given(search_games(), st.integers(0, 300), st.integers(0, 10**9))
@example((full_class(2), total_map(2)), 1, 5)
@example((full_class(2), total_map(2)), 2, 5)
def test_probe_agrees_with_a_stepwise_replay(game, horizon, seed):
    """The probe replays its compiled mistake chain and counts an
    absorbing state's tail at once; a plain lazy learner shown every
    round agrees.  The examples use one raw word, half of it at T = 1."""
    hc, u = game
    assume(hc.label_count == 2 and adversarial_dimension(hc, u) >= 1)
    x0, x1 = witness_tree(hc, u).root.pair
    z = min(u.forward[x0] & u.forward[x1])
    labels = derive_rng(seed, "random-label-probe").integers(0, 2, size=horizon).tolist()
    lazy = agnostic_learner(hc, u)
    mistakes = 0
    for y in labels:
        mistakes += lazy.predict(z) != y
        lazy.update(z, (x0, x1)[y], y)
    comparator = min(
        sum(adversarial_loss(h, (x0, x1)[y], y, u) for y in labels) for h in hc
    )
    assert random_label_regret_sample(hc, u, horizon, seed) == {
        "regret": mistakes - comparator,
        "mistakes": mistakes,
        "comparator": comparator,
        "node": (x0, x1),
        "perturbed_input": z,
    }


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
    experts = plain_subset_pool(hc, u, len(rounds), dim)
    rate = horizon_rate(len(experts), len(rounds))
    mistakes, _ = stepwise_ewa(experts, rounds, rate, derive_rng(seed, "agnostic"))
    best, _ = comparator_loss(hc, u, rounds)
    assert mc_regret(hc, u, rounds, seeds=[seed])["values"] == [mistakes - best]


@PROPERTY
@given(
    games(max_labels=2),
    st.integers(1, 12),
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(0, 2**16),
)
@example(
    game=(full_class(2), identity_map(2)), horizon=6, dimension=0, corruptions=2, seed=0
)
@example(
    game=(HypothesisClass.from_tables([(1,)]), PerturbationMap.from_sets([{0}])),
    horizon=3,
    dimension=1,
    corruptions=1,
    seed=126,
)
def test_group_replay_equals_the_pool(game, horizon, dimension, corruptions, seed):
    """mc_regret's groups give the probabilities of exponential weights
    over the whole pool of subset experts, built from the reference's
    plain experts and replayed expert by expert.  The dimension is drawn,
    not computed, so the pools range over subset sizes 0 to 3.  The first
    example has one group throughout.  The second plays (0, 0, 1),
    (0, 0, 0), (0, 0, 1) against one hypothesis: round 0 is a correct
    round, whose step leaves the state as it is, and the experts with 0 in
    J must still count it, since from round 1 on they have no subset left
    to spend."""
    hc, u = game
    rng = derive_rng(seed, "group-replay")
    rounds = realizable_robust_rounds(hc, u, horizon, rng)
    assume(rounds)
    rounds = corrupt_labels(rounds, corruptions, 2, rng)
    experts = plain_subset_pool(hc, u, len(rounds), dimension)
    preds, losses = expert_matrices(experts, rounds)
    pool = weight_trajectory(preds, losses, horizon_rate(len(experts), len(rounds)))
    got = mc_regret(hc, u, rounds, seeds=[seed], dimension=dimension)
    assert got["expert_count"] == len(experts)
    assert np.allclose(got["probabilities"], pool, rtol=0, atol=1e-12)


@PROPERTY
@given(games(max_labels=2), st.integers(1, 12), st.integers(0, 3), st.integers(0, 2**16))
def test_decomposition_gap_counts_the_analysis_expert(game, horizon, corruptions, seed):
    """decomposition_gap's subset is the plain lazy learner's mistake
    rounds on the comparator's free rounds, and its expert mistakes are
    those of a plain subset expert over that subset, stepped round by
    round."""
    hc, u = game
    rng = derive_rng(seed, "decomposition")
    rounds = realizable_robust_rounds(hc, u, horizon, rng)
    assume(rounds)
    rounds = corrupt_labels(rounds, corruptions, 2, rng)
    report = decomposition_gap(hc, u, rounds)
    best, lazy, picked = list(hc)[report["best_hypothesis"]], agnostic_learner(hc, u), []
    for t, (z, x, y) in enumerate(rounds):
        if adversarial_loss(best, x, y, u) == 0:
            if lazy.predict(z) != y:
                picked.append(t)
            lazy.update(z, x, y)
    assert list(report["subset"]) == picked
    expert = PlainSubsetExpert(report["subset"], hc, u)
    mistakes = 0
    for z, x, y in rounds:
        mistakes += expert.predict(z) != y
        expert.update(z, x, y)
    assert report["expert_mistakes"] == mistakes


@st.composite
def families(draw):
    """(binary class, family of one to four maps on its instances)."""
    hc, u = draw(games(max_labels=2))
    n = hc.instance_count
    sets = st.lists(st.sets(st.integers(0, n - 1)), min_size=n, max_size=n)
    others = draw(st.lists(sets, max_size=3))
    members = (u,) + tuple(PerturbationMap.from_sets(m) for m in others)
    return hc, PerturbationFamily(members, draw(st.integers(0, len(members) - 1)))


# Round 0 shows the identity and the last member an input outside their
# perturbation sets of the revealed instance; round 1 empties the first two
# members' version spaces and finds the last member no counterpart; round 2
# steps the emptied states.
FAMILY_EXAMPLE = (
    HypothesisClass.from_tables([(0, 0), (1, 1), (0, 1)]),
    PerturbationFamily(
        (identity_map(2), total_map(2), PerturbationMap.from_sets([{1}, set()])), 1
    ),
)
FAMILY_EXAMPLE_ROUNDS = [(0, 1, 0), (0, 0, 1), (1, 1, 0)]


def test_the_family_example_takes_every_tolerant_path():
    hc, family = FAMILY_EXAMPLE
    experts = build_family_experts(hc, family.members)
    expert_matrices(experts, FAMILY_EXAMPLE_ROUNDS)
    events = {e for expert in experts for e in expert.events}
    assert events == {"input-outside-belief", "version-space-emptied", "missing-counterpart"}


@PROPERTY
@given(families(), st.lists(st.tuples(*[st.integers(0, 3)] * 3), min_size=1, max_size=8), st.integers(0, 2**16))
@example(game=FAMILY_EXAMPLE, rounds=FAMILY_EXAMPLE_ROUNDS, seed=0)
@example(
    game=(
        HypothesisClass.from_tables([(1, 0, 1), (1, 1, 0), (0, 0, 0), (1, 1, 1), (0, 1, 1)]),
        PerturbationFamily((PerturbationMap.from_sets([{2}, {1}, {0}]),)),
    ),
    rounds=[(0, 0, 1), (1, 1, 0)],
    seed=0,
)
def test_family_replay_equals_the_stepwise_loops(game, rounds, seed):
    """The package steps each family expert as a state id on its member's
    context.  The reference's tolerant learner objects, replayed into
    matrices and stepped round by round, give the same forecaster
    mistakes, best expert and halving report.  Reveals are arbitrary, so
    wrong-map members see inputs outside their perturbation sets, empty
    their version spaces and miss counterparts.  The second example's
    round-1 prediction depends on the counterpart fed in round 0."""
    hc, family = game
    n = hc.instance_count
    rounds = [(z % n, x % n, y % 2) for z, x, y in rounds]
    preds, losses = expert_matrices(build_family_experts(hc, family.members), rounds)
    rate = loss_budget_rate(len(family), family_loss_budget(hc, family))
    rng = derive_rng(seed, "family-ewa")
    mistakes, expert_mistakes = stepwise_ewa(build_family_experts(hc, family), rounds, rate, rng)
    assert losses.sum(axis=1).tolist() == expert_mistakes
    coins = derive_rng(seed, "family-ewa").random(len(rounds))
    labels = np.array([y for _, _, y in rounds])
    probs = weight_trajectory(preds, losses, rate)
    assert int(((coins < probs) != labels).sum()) == mistakes
    got = mc_family_mistakes(hc, family, rounds, seeds=[seed])
    assert (got["values"], got["best_expert"]) == ([mistakes], min(expert_mistakes))

    phases, alive = stepwise_halving(build_family_experts(hc, family), rounds)
    assert family_halving_run(hc, family, rounds) == HalvingReport(
        mistakes=sum(phases),
        phase_mistakes=phases,
        completed_phases=len(phases) - 1,
        expert_mistakes=expert_mistakes,
        alive_count=alive,
    )


@PROPERTY
@given(games(max_labels=2), st.integers(1, 10), st.integers(0, 3), st.integers(0, 2**16))
def test_expected_regret_equals_the_enumerated_coins(game, horizon, corruptions, seed):
    """expected_regret's exact value is the expected mistakes over all
    2^T outcomes of the forecaster's coins, with the pool's experts
    replayed one by one, minus the best hypothesis's robust loss."""
    hc, u = game
    rng = derive_rng(seed, "enumerated-regret")
    rounds = realizable_robust_rounds(hc, u, horizon, rng)
    assume(rounds)
    rounds = corrupt_labels(rounds, corruptions, 2, rng)
    experts = plain_subset_pool(hc, u, len(rounds), adversarial_dimension(hc, u))
    preds, losses = expert_matrices(experts, rounds)
    labels = [y for _, _, y in rounds]
    rate = horizon_rate(len(experts), len(rounds))
    best = min(sum(adversarial_loss(h, x, y, u) for _, x, y in rounds) for h in hc)
    enumerated = enumerated_expected_mistakes(preds, losses, labels, rate) - best
    assert math.isclose(expected_regret(hc, u, rounds)["expected"], enumerated, abs_tol=1e-9)


@PROPERTY
@given(families(), st.lists(st.tuples(*[st.integers(0, 3)] * 3), min_size=1, max_size=10))
@example(game=FAMILY_EXAMPLE, rounds=FAMILY_EXAMPLE_ROUNDS)
def test_family_expected_mistakes_equals_the_enumerated_coins(game, rounds):
    """family_expected_mistakes' exact value is the expected mistakes over
    all 2^T outcomes of the forecaster's coins, on arbitrary reveals."""
    hc, family = game
    n = hc.instance_count
    rounds = [(z % n, x % n, y % 2) for z, x, y in rounds]
    preds, losses = expert_matrices(build_family_experts(hc, family.members), rounds)
    labels = [y for _, _, y in rounds]
    rate = loss_budget_rate(len(family), family_loss_budget(hc, family))
    enumerated = enumerated_expected_mistakes(preds, losses, labels, rate)
    got = family_expected_mistakes(hc, family, rounds)["expected"]
    assert math.isclose(got, enumerated, abs_tol=1e-9)


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


def _full_class_text(n):
    hc, u = full_class(n), identity_map(n)
    return serialize_scenario(
        Scenario(
            instance_names=tuple(f"x{i}" for i in range(n)),
            label_names=("y0", "y1"),
            hypothesis_names=tuple(f"h{i}" for i in range(hc.size)),
            hypotheses=hc,
            perturbation_names=("main",),
            perturbations=(u,),
            truth_name="main",
        )
    )


# generated corpus (two and three labels), family and full_class texts
BASE_TEXTS = tuple(
    [serialize_scenario(sc) for sc in generate_corpus(CorpusParams(count=8, seed=3))]
    + [
        serialize_scenario(sc)
        for sc in generate_corpus(CorpusParams(count=4, seed=4, label_count=3))
    ]
    + [serialize_scenario(sc) for sc in generate_family_scenarios(3, seed=5)]
    + [_full_class_text(n) for n in (1, 2, 3)]
)
INSERTED_LINES = (
    "SPACES",
    "  HYPOTHESES",
    "HYPOTHESES extra",
    "PERTURBATIONS",
    "PERTURBATIONS main",
    "PERTURBATIONS u1",
    "PERTURBATIONS 9x",
    "GAME",
    "instances: x0 x1",
    "labels: y0 y1 y2",
    "labels: y0",
    "h0: y0 y1",
    "h9: y1 y1 y0",
    "x0: -",
    "x1: x0 x7",
    "  x2: x2 x2 # a note",
    "protocol: orientation",
    "truth: u1",
    "truth: ghost",
    "horizon: 0",
    "horizon: 99999999999999999999",
    "seed: -7",
    "seed: 1.5",
    "corruptions: -1",
    "learner: majority",
    "adversary: bogus",
    "color: red",
    "no colon here",
    ": y0",
    "# only a comment",
    "",
)
EDIT_CHARACTERS = "xyh019:#- \t\r._\u00e9"


@st.composite
def mutated_texts(draw):
    """A generated scenario text after one to four line-level mutations.

    A mutation deletes, duplicates or swaps lines, inserts a header or a
    key line, gives a line the key of another, drops a line's last value,
    or inserts, deletes or replaces one character.  Every value stays
    shorter than 20 characters, the width up to which messages quote a
    value whole.
    """
    lines = draw(st.sampled_from(BASE_TEXTS)).split("\n")
    ops = ("delete", "duplicate", "swap", "insert", "rekey", "drop", "edit")
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(ops))
        i = draw(st.integers(0, max(len(lines) - 1, 0)))
        j = draw(st.integers(0, max(len(lines) - 1, 0)))
        if op == "insert" or not lines:
            lines.insert(i, draw(st.sampled_from(INSERTED_LINES)))
        elif op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(j, lines[i])
        elif op == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "rekey":
            lines[i] = lines[j].partition(":")[0] + ":" + lines[i].partition(":")[2]
        elif op == "drop":
            lines[i] = lines[i].rpartition(" ")[0]
        else:
            line = lines[i]
            k = draw(st.integers(0, len(line)))
            kind = draw(st.sampled_from(("insert", "delete", "replace")))
            new = "" if kind == "delete" else draw(st.sampled_from(EDIT_CHARACTERS))
            lines[i] = line[:k] + new + line[k + (kind != "insert") :]
    return "\n".join(lines)


@settings(max_examples=600, deadline=None, database=None)
@given(mutated_texts())
@example(BASE_TEXTS[0])
def test_parser_matches_the_reference_on_mutated_texts(text):
    """The one-scan parser gives the reference parser's scenario and errors."""
    assert try_parse_scenario(text) == reference_parse(text)


@st.composite
def table_draws(draw):
    """(n, label_count, count, seed) with count up to the size of the function space."""
    n = draw(st.integers(1, 5))
    labels = draw(st.integers(2, 4))
    count = draw(st.integers(0, labels**n) | st.just(labels**n))
    return n, labels, count, draw(st.integers(0, 2**32 - 1))


@PROPERTY
@given(table_draws())
# the whole function space of 1,024 tables: a coupon collector's wait
@example((5, 4, 4**5, 0))
@example((3, 2, 8, 1))
def test_corpus_tables_draw_like_one_row_per_call(args):
    """The block draws give the reference's tables and leave the stream
    where one rng.integers call per row leaves it."""
    n, labels, count, seed = args
    rng, plain = np.random.default_rng(seed), np.random.default_rng(seed)
    assert _random_tables(n, count, labels, rng) == one_row_per_call_tables(n, count, labels, plain)
    assert rng.integers(2**32) == plain.integers(2**32)
    assert rng.bit_generator.state == plain.bit_generator.state


def seed_sequence_from_words(*parts):
    """The digest's eight little-endian words, handed over as a list."""
    digest = hashlib.sha256("\x1f".join(str(p) for p in parts).encode()).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 32, 4)]
    return np.random.SeedSequence(words)


seed_parts = st.lists(
    st.recursive(
        st.integers() | st.text(),
        lambda inner: st.tuples(inner) | st.tuples(inner, inner),
        max_leaves=4,
    ),
    max_size=5,
)


@PROPERTY
@given(seed_parts)
def test_seed_sequence_matches_the_word_list(parts):
    ours, listed = derive_seed_sequence(*parts), seed_sequence_from_words(*parts)
    assert ours.generate_state(8).tolist() == listed.generate_state(8).tolist()
    stream = np.random.Generator(np.random.PCG64(listed))
    assert derive_rng(*parts).random(4).tolist() == stream.random(4).tolist()
