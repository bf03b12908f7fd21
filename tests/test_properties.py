"""Property tests over random small games.

The consistency masks are the package's single source of the robust
loss.  The first properties check them, and the functions derived from
them, against the definitional `adversarial_loss`; the next check the
dimension search, restriction, and the lifetime of compiled data; the
next check the lazy learner's automaton and the one-replay expert
aggregation against stepwise loops on plain learners; the last checks
that scenario files round-trip.
"""

import gc
import itertools
import math
import weakref

from hypothesis import given, settings
from hypothesis import strategies as st

from robust_online import (
    LEARNER_NAMES,
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
    agnostic_run,
    build_family_experts,
    comparator_loss,
    compatible_pairs,
    derive_rng,
    family_ewa_run,
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
from robust_online.forecaster import expert_matrices
from robust_online.learners import LazyRobustAutomaton
from robust_online.model import compiled, consistency_masks
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
    report = agnostic_run(hc, u, rounds, seed)
    assert report.mistakes == mistakes
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
    report = family_ewa_run(hc, family, rounds, seed)
    assert (report.mistakes, report.expert_mistakes) == (mistakes, expert_mistakes)
    assert mc_family_mistakes(hc, family, rounds, seeds=[seed])["values"] == [mistakes]

    halving = family_halving_run(hc, family, rounds)
    phases, alive = stepwise_halving(build_family_experts(hc, family), rounds)
    assert (halving.phase_mistakes, halving.alive_count) == (phases, alive)
    _, losses = expert_matrices(build_family_experts(hc, family), rounds)
    assert halving.expert_mistakes == losses.sum(axis=1).tolist()


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
