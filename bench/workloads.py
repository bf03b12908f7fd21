"""The benchmark's three workloads: seeded inputs, items and output checks.

Every workload is a closed loop: one caller in one single-threaded process
runs its items back to back, each only after the previous one returned.
Inputs come from the workload seed alone; the package only ever receives
the generated inputs.  Each item returns (result, ok): `result` is a
deterministic tuple that feeds the output digest, `ok` says whether the
item met the paper's guarantee.

Only names in robust_online.__all__ are used here, so the package's
internals can be refactored without breaking the benchmark.

solve   the traffic of `robust-online dim` and `oracle`: exact answers for
        classes the process has not seen (cold dimension search, memo
        writes, the minimax oracle, scenario parsing).  No (class, map)
        pair is solved twice, so the package's process-wide caches never
        turn an item into a dictionary lookup.
play    the realizable games of criteria 3, 4 and 5: sequence generation,
        learners and the runner, with the dimension engine serving warm
        memo reads (the classes are solved while setting up).
replay  the traffic of `robust-online agnostic` and `uncertain`: subset-
        expert and family-expert replays with the forecaster trajectory,
        and random-label regret probes.
"""

import math
import random
from dataclasses import dataclass

import numpy as np

import robust_online as ro

DESK_HORIZON = 10  # rounds per realizable desk game, as in criterion 3
BIG_HORIZON = 20  # rounds per realizable game on the large class
CAP_HORIZON = 3  # horizon of the capped oracle value in solve
PROBE_HORIZONS = (64, 256, 1024)  # as in criterion 11
REGRET_SEEDS = 200  # forecaster seeds per regret estimate, as in criterion 8
FAMILY_SEEDS = 100  # forecaster seeds per family estimate, as in criterion 10
FAMILY_HORIZON = 12
# (dimension, horizon) of the regret estimates: subset pools of 100, 200,
# 211, 466 and 821 experts
REGRET_SHAPES = ((1, 99), (1, 199), (2, 20), (2, 30), (2, 40))


@dataclass
class Context:
    """What an item needs besides its spec: the seed, a span factory and
    the deterministic work tallies that both run modes must agree on."""

    seed: int
    span: object
    counts: dict

    def tally(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n


@dataclass(frozen=True)
class Item:
    kind: str
    spec: tuple


@dataclass
class Prepared:
    """A scenario's class and truth map plus reference values from set-up."""

    hc: object
    u: object
    multiclass: bool
    dimension: int
    tree: object = None
    horizon: int = DESK_HORIZON
    budget: int = 0
    family: object = None


def _shuffled(items, seed, name):
    """Deterministic interleaving, so host noise hits every item kind alike."""
    items = list(items)
    random.Random(f"{seed}:{name}:order").shuffle(items)
    return items


def _pair_key(hc, u):
    return (tuple(h.table for h in hc), u.forward, hc.label_count)


def _desk_corpus(seed, label_count, want, stream):
    """At least `want` distinct desk scenarios, in generation order."""
    out, seen, block = [], set(), 0
    while len(out) < want:
        # about a fifth of small desk scenarios repeat an earlier pair
        params = ro.CorpusParams(
            count=math.ceil(1.3 * (want - len(out))) + 16,
            seed=(seed * 1000 + stream) * 1000 + block,
            label_count=label_count,
        )
        for i, sc in enumerate(ro.generate_corpus(params)):
            key = _pair_key(sc.hypotheses, sc.truth)
            if key not in seen:
                seen.add(key)
                out.append((sc, params.strata[i % len(params.strata)]))
        block += 1
    return out[:want]


def _as_scenario(hc, u):
    n = hc.instance_count
    return ro.Scenario(
        instance_names=tuple(f"x{i}" for i in range(n)),
        label_names=tuple(f"y{i}" for i in range(hc.label_count)),
        hypothesis_names=tuple(f"h{i}" for i in range(hc.size)),
        hypotheses=hc,
        perturbation_names=("main",),
        perturbations=(u,),
        truth_name="main",
    )


def cyclic_class(seed, stream, instances, hypotheses):
    """Seeded distinct binary tables under cyclic 3-element neighbourhoods."""
    rng = ro.derive_rng(seed, "bench-large", stream)
    tables = set()
    while len(tables) < hypotheses:
        tables.add(tuple(int(v) for v in rng.integers(0, 2, size=instances)))
    hc = ro.HypothesisClass.from_tables(sorted(tables))
    u = ro.PerturbationMap.from_sets(
        [{(x - 1) % instances, x, (x + 1) % instances} for x in range(instances)]
    )
    return hc, u


def _tree_shape(node):
    if node is None:
        return ()
    return (node.pair, node.labels, _tree_shape(node.zero_child), _tree_shape(node.one_child))


# ---------------------------------------------------------------- solve


@dataclass(frozen=True)
class SolveSize:
    desk: int  # distinct desk scenarios (<= 5 instances, <= 16 hypotheses)
    multiclass_every: int  # one desk scenario in this many has 3 labels
    full_instances: int  # full_class(n) under the identity map
    big: int  # seeded classes under cyclic 3-element neighbourhoods
    big_instances: int
    big_hypotheses: int


def solve_size(seconds: int) -> SolveSize:
    return SolveSize(400 * seconds, 5, 11, math.ceil(seconds / 5), 20, 1024)


def solve_generate(seed: int, size: SolveSize):
    multi = size.desk // size.multiclass_every
    specs = []
    for labels, want, stream in ((2, size.desk - multi, 1), (3, multi, 2)):
        for sc, stratum in _desk_corpus(seed, labels, want, stream):
            classic = labels == 2 and stratum == "identity"
            specs.append(Item("desk", (ro.serialize_scenario(sc), classic)))
    large = [(ro.full_class(size.full_instances), ro.identity_map(size.full_instances))]
    large += [
        cyclic_class(seed, j, size.big_instances, size.big_hypotheses) for j in range(size.big)
    ]
    specs += [Item("large", (ro.serialize_scenario(_as_scenario(hc, u)), False)) for hc, u in large]
    return specs


def solve_prepare(seed: int, specs):
    return _shuffled(specs, seed, "solve"), None


def solve_item(item: Item, ctx: Context, _):
    text, classic = item.spec
    sp = ctx.span
    with sp("scenario.parse"):
        sc = ro.parse_scenario(text)
    hc, u, mc = sc.hypotheses, sc.truth, sc.multiclass
    with sp("dimension.search"):
        dim = ro.adversarial_dimension(hc, u, multiclass=mc)
    with sp("dimension.witness"):
        tree = ro.witness_tree(hc, u, multiclass=mc)
    with sp("dimension.shattered"):
        shattered = ro.is_shattered(tree, hc, u)
    ok = shattered and tree.depth == dim
    result = [item.kind, hc.size, dim, _tree_shape(tree.root)]
    if item.kind == "desk":
        with sp("oracle.value"):
            robust = ro.optimal_mistake_bound(hc, u, "robust", multiclass=mc)
        with sp("oracle.value"):
            orient = ro.optimal_mistake_bound(hc, u, "orientation", multiclass=mc)
        with sp("oracle.value"):
            capped = ro.optimal_mistake_bound(hc, u, "robust", multiclass=mc, horizon=CAP_HORIZON)
        ok = ok and dim == robust == orient and capped <= robust
        result += [robust, orient, capped]
    if classic:
        with sp("dimension.classic"):
            classic_dim = ro.classic_littlestone_dimension(hc)
        ok = ok and classic_dim == dim
        result.append(classic_dim)
    return tuple(result), ok


# ----------------------------------------------------------------- play


@dataclass(frozen=True)
class PlaySize:
    binary: int  # desk scenarios with 2 labels
    multiclass: int  # desk scenarios with 3 labels
    sequences: int  # realizable sequences per desk scenario and game
    big_robust: int  # realizable robust sequences on the large class
    big_orientation: int  # realizable orientation sequences on the large class
    big_instances: int
    big_hypotheses: int


def play_size(seconds: int) -> PlaySize:
    # The robust games on the large class are numerous enough to hold the
    # 99th percentile, so item_p99_ms reads one homogeneous kind of game
    # instead of whichever desk classes a seed happens to make heaviest.
    return PlaySize(512, 256, 3 * seconds // 2, 50 * seconds, 3 * seconds, 20, 1024)


def play_generate(seed: int, size: PlaySize):
    # about three desk classes in four admit both games and have dimension >= 1
    desk = [sc for sc, _ in _desk_corpus(seed, 2, math.ceil(1.6 * size.binary) + 8, 3)]
    desk += [sc for sc, _ in _desk_corpus(seed, 3, math.ceil(1.6 * size.multiclass) + 8, 4)]
    big = cyclic_class(seed, "play", size.big_instances, size.big_hypotheses)
    return size, desk, big


def play_prepare(seed: int, generated):
    """Solve each class once (the read side starts warm) and list the games."""
    size, desk, big = generated
    targets = []
    want = {2: size.binary, 3: size.multiclass}
    for idx, sc in enumerate(desk):
        hc, u, mc = sc.hypotheses, sc.truth, sc.multiclass
        if want[hc.label_count] == 0:
            continue
        probe = ro.derive_rng(seed, "play-probe", idx)
        if not ro.realizable_robust_rounds(hc, u, 1, probe):
            continue
        if not ro.realizable_orientation_rounds(hc, u, 1, probe, multiclass=mc):
            continue
        dim = ro.adversarial_dimension(hc, u, multiclass=mc)
        if dim < 1:
            continue
        tree = None if mc else ro.witness_tree(hc, u)
        targets.append(Prepared(hc, u, mc, dim, tree))
        want[hc.label_count] -= 1
    if any(want.values()):
        raise RuntimeError("desk corpus too small for the play workload")
    hc, u = big
    targets.append(
        Prepared(hc, u, False, ro.adversarial_dimension(hc, u), ro.witness_tree(hc, u), BIG_HORIZON)
    )
    items = []
    for t, target in enumerate(targets):
        large = target.horizon == BIG_HORIZON
        for kind, count in (
            ("robust", size.big_robust if large else size.sequences),
            ("orientation", size.big_orientation if large else size.sequences),
        ):
            items += [Item(kind, (t, s)) for s in range(count)]
        if target.tree is not None:
            for name in ("optimal",) + ro.BASELINES:
                for game in ("orientation", "robust"):
                    items.append(Item("tree", (t, name, game)))
    return _shuffled(items, seed, "play"), targets


def _realizable_game(item, ctx, target):
    t, s = item.spec
    sp, hc, u, mc = ctx.span, target.hc, target.u, target.multiclass
    horizon = target.horizon
    with sp("seeding.derive"):
        rng = ro.derive_rng(ctx.seed, "play", item.kind, t, s)
    if item.kind == "robust":
        with sp("adversaries.gen_robust"):
            rounds = ro.realizable_robust_rounds(hc, u, horizon, rng)
    else:
        with sp("adversaries.gen_orientation"):
            rounds = ro.realizable_orientation_rounds(hc, u, horizon, rng, multiclass=mc)
    ctx.tally("adversaries.gen_calls")
    ctx.tally("adversaries.rounds", len(rounds))
    with sp("learners.init"):
        learner = ro.make_learner("optimal", item.kind, hc, u, multiclass=mc)
    with sp("runner.game"):
        if item.kind == "robust":
            played, _ = ro.run_robust_game(
                hc, u, learner, ro.ScriptedRobustAdversary(rounds), horizon
            )
        else:
            played, _ = ro.run_orientation_game(
                hc, u, learner, ro.ScriptedOrientationAdversary(rounds), horizon
            )
    ctx.tally("runner.games")
    ctx.tally("runner.rounds", len(played))
    mistakes = sum(r.loss for r in played)
    ok = len(played) == horizon and mistakes <= target.dimension
    if item.kind == "orientation":
        # every mistake must strictly shrink the version space's dimension
        v = ro.VersionSpace.full(hc)
        for r in played:
            before = v
            with sp("model.restrict"):
                v = ro.restrict(v, r.pair[r.side], r.labels[r.side], u)
            if r.loss:
                with sp("dimension.lookup"):
                    d_before = ro.dimension_of(before, u, mc)
                with sp("dimension.lookup"):
                    d_after = ro.dimension_of(v, u, mc)
                ok = ok and d_after < d_before
    return (item.kind, t, s, len(played), mistakes, tuple(r.prediction for r in played)), ok


def _tree_game(item, ctx, target):
    t, name, game = item.spec
    sp, hc, u, dim = ctx.span, target.hc, target.u, target.dimension
    rng = None
    if name == "random":
        with sp("seeding.derive"):
            rng = ro.derive_rng(ctx.seed, "play-tree", t, game)
    with sp("learners.init"):
        learner = ro.make_learner(name, game, hc, u, rng=rng, strict=name == "optimal")
    with sp("runner.game"):
        if game == "orientation":
            adversary = ro.OrientationTreeAdversary(target.tree)
            played, _ = ro.run_orientation_game(hc, u, learner, adversary, dim)
        else:
            adversary = ro.RobustTreeAdversary(target.tree, u)
            played, _ = ro.run_robust_game(hc, u, learner, adversary, dim)
    ctx.tally("runner.games")
    ctx.tally("runner.rounds", len(played))
    mistakes = sum(r.loss for r in played)
    ok = mistakes == dim if name == "optimal" else mistakes >= dim
    return ("tree", t, name, game, mistakes, tuple(r.prediction for r in played)), ok


def play_item(item: Item, ctx: Context, targets):
    game = _tree_game if item.kind == "tree" else _realizable_game
    return game(item, ctx, targets[item.spec[0]])


# --------------------------------------------------------------- replay


@dataclass(frozen=True)
class ReplaySize:
    regret_sets: int  # each set is one estimate per REGRET_SHAPES entry
    family: int  # family estimates
    probes: int  # probes per horizon in PROBE_HORIZONS


def replay_size(seconds: int) -> ReplaySize:
    # The probes are most of the items and of the time: their work does not
    # depend on the seed, while a regret estimate's cost varies severalfold
    # with its class.  The family estimates, whose cost is mostly their
    # seeds' streams, are about 2% of the items, so item_p99_ms falls in
    # the middle of them.  At least 600 probes per horizon, as criterion
    # 11's smoke scale, keep the slope check clear of sampling noise.
    return ReplaySize(math.ceil(seconds / 5), 10 * seconds, max(600, 200 * seconds))


def replay_generate(seed: int, size: ReplaySize):
    desk = [sc for sc, _ in _desk_corpus(seed, 2, 60 * size.regret_sets, 5)]
    family = ro.generate_family_scenarios(size.family, seed=seed)
    return size, desk, family


def replay_prepare(seed: int, generated):
    """Pick dimension-1 and -2 desk classes and fix each family's budget."""
    size, desk, family = generated
    need = {d: sum(1 for dd, _ in REGRET_SHAPES if dd == d) * size.regret_sets for d in (1, 2)}
    pools = {1: [], 2: []}
    for idx, sc in enumerate(desk):
        if all(len(pools[d]) == need[d] for d in pools):
            break
        hc, u = sc.hypotheses, sc.truth
        if not ro.realizable_robust_rounds(hc, u, 1, ro.derive_rng(seed, "replay-probe", idx)):
            continue
        dim = ro.adversarial_dimension(hc, u)
        if dim in pools and len(pools[dim]) < need[dim]:
            pools[dim].append(Prepared(hc, u, False, dim))
    if any(len(pools[d]) < need[d] for d in pools):
        raise RuntimeError("desk corpus too small for the regret estimates")
    targets, items = [], []
    for _ in range(size.regret_sets):
        for dim, horizon in REGRET_SHAPES:
            targets.append(pools[dim].pop())
            items.append(Item("regret", (len(targets) - 1, horizon)))
    for sc in family:
        fam = sc.family()
        budget = max(ro.adversarial_dimension(sc.hypotheses, u) for u in fam)
        targets.append(Prepared(sc.hypotheses, fam.truth, False, 0, budget=budget, family=fam))
        items.append(Item("family", (len(targets) - 1,)))
    for horizon in PROBE_HORIZONS:
        items += [Item("probe", (horizon, s)) for s in range(size.probes)]
    probe_class = (ro.full_class(2), ro.total_map(2))
    return _shuffled(items, seed, "replay"), (targets, probe_class)


def _regret(item, ctx, target):
    t, horizon = item.spec
    sp, hc, u, dim = ctx.span, target.hc, target.u, target.dimension
    with sp("seeding.derive"):
        rng = ro.derive_rng(ctx.seed, "replay", t, horizon)
    with sp("adversaries.gen_robust"):
        rounds = ro.realizable_robust_rounds(hc, u, horizon, rng)
        rounds = ro.corrupt_labels(rounds, 2, hc.label_count, rng)
    ctx.tally("adversaries.gen_calls")
    ctx.tally("adversaries.rounds", len(rounds))
    with sp("agnostic.estimate"):
        mc = ro.mc_regret(hc, u, rounds, seeds=range(REGRET_SEEDS), dimension=dim)
    n = mc["expert_count"]
    ctx.tally("agnostic.experts", n)
    ctx.tally("agnostic.expert_rounds", n * len(rounds))
    ctx.tally("forecaster.expert_rounds", n * len(rounds))
    ok = mc["mean"] <= dim + math.sqrt(horizon / 2 * math.log(n))
    return ("regret", t, horizon, n, mc["comparator"], tuple(mc["values"])), ok


def _family(item, ctx, target):
    (t,) = item.spec
    sp, hc, family, budget = ctx.span, target.hc, target.family, target.budget
    with sp("seeding.derive"):
        rng = ro.derive_rng(ctx.seed, "replay-family", t)
    with sp("adversaries.gen_robust"):
        rounds = ro.realizable_robust_rounds(hc, family.truth, FAMILY_HORIZON, rng)
    ctx.tally("adversaries.gen_calls")
    ctx.tally("adversaries.rounds", len(rounds))
    with sp("uncertain.estimate"):
        mc = ro.mc_family_mistakes(hc, family, rounds, seeds=range(FAMILY_SEEDS), budget=budget)
    n = len(family)
    ctx.tally("uncertain.expert_rounds", n * len(rounds))
    ctx.tally("forecaster.expert_rounds", n * len(rounds))
    # the loss-budget bound of criterion 10
    bound = budget + math.sqrt(2) * (math.sqrt(budget * math.log(n)) + math.log(n))
    ok = mc["realizable"] and mc["mean"] <= bound
    return ("family", t, n, mc["best_expert"], tuple(mc["values"])), ok


def _probe(item, ctx, probe_class):
    horizon, s = item.spec
    hc, u = probe_class
    with ctx.span("agnostic.probe"):
        r = ro.random_label_regret_sample(hc, u, horizon, ctx.seed * 10**8 + horizon * 10**5 + s)
    ctx.tally("agnostic.probe_rounds", horizon)
    # the comparator is min(#zeros, #ones) on this class
    ok = (
        r["regret"] == r["mistakes"] - r["comparator"]
        and 0 <= r["comparator"] <= horizon // 2
        and 0 <= r["mistakes"] <= horizon
    )
    return ("probe", horizon, s, r["mistakes"], r["comparator"]), ok


def replay_item(item: Item, ctx: Context, prepared):
    targets, probe_class = prepared
    if item.kind == "probe":
        return _probe(item, ctx, probe_class)
    run = _regret if item.kind == "regret" else _family
    return run(item, ctx, targets[item.spec[0]])


def replay_finish(results):
    """Batch check of criterion 11: the probe means grow like sqrt(horizon).

    Returns (batch result, kinds whose items fail with it).
    """
    sums = {h: [0, 0] for h in PROBE_HORIZONS}
    for result in results:
        if result[0] == "probe":
            acc = sums[result[1]]
            acc[0] += result[3] - result[4]
            acc[1] += 1
    means = [sums[h][0] / sums[h][1] for h in PROBE_HORIZONS if sums[h][1]]
    if len(means) < len(PROBE_HORIZONS) or min(means) <= 0:
        return ("probe-slope", None), ("probe",)
    slope = float(np.polyfit(np.log(PROBE_HORIZONS), np.log(means), 1)[0])
    return ("probe-slope", slope), () if 0.4 <= slope <= 0.6 else ("probe",)


@dataclass(frozen=True)
class Workload:
    size_for: object
    generate: object
    prepare: object
    run_item: object
    finish: object = None


WORKLOADS = {
    "solve": Workload(solve_size, solve_generate, solve_prepare, solve_item),
    "play": Workload(play_size, play_generate, play_prepare, play_item),
    "replay": Workload(replay_size, replay_generate, replay_prepare, replay_item, replay_finish),
}
