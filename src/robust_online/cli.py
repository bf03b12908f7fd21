"""Command line interface.

Subcommands:
    dim         dimension of a scenario's hypothesis class
    play        run one game described by a scenario file
    oracle      exact minimax values, checked against the dimension
    adversary   force mistakes with the witness-tree adversary
    agnostic    exact expected regret of the aggregated learner
    uncertain   unknown-perturbation learners (ewa or halving)
    gen-corpus  write a deterministic scenario corpus
    check       run the acceptance suite

Every subcommand exits 0 only when everything it asserted held.  Bad
input ends in an error message on stderr and a nonzero exit.
"""

import argparse
import sys
import time
from pathlib import Path

from ._version import __version__
from .acceptance import CRITERIA, FULL, parse_criteria_spec
from .adversaries import corrupt_labels, realizable_robust_rounds, tree_adversary
from .agnostic import expected_regret
from .dimension import (
    adversarial_dimension,
    classic_littlestone_dimension,
    witness_tree,
)
from .errors import DomainError, LimitExceeded, ScenarioFormatError
from .learners import LEARNER_NAMES, make_learner
from .model import identity_map
from .oracle import optimal_mistake_bound
from .runner import run_game, run_scenario, transcript_to_json
from .scenario import (
    MAX_DIGITS,
    MAX_HORIZON,
    MAX_LABELS,
    CorpusParams,
    STRATA,
    generate_corpus,
    generate_family_scenarios,
    parse_scenario,
    read_int,
    serialize_scenario,
    shorten,
)
from .seeding import derive_rng
from .uncertain import family_expected_mistakes, family_halving_run, halving_bound


def _load_scenario(path: str):
    try:
        return parse_scenario(Path(path).read_text(encoding="utf-8-sig"))
    except UnicodeDecodeError as e:
        print(f"invalid scenario {path}: {e}", file=sys.stderr)
        raise SystemExit(1)
    except ScenarioFormatError as e:
        print(f"invalid scenario {path}:", file=sys.stderr)
        for err in e.errors:
            print(f"  {err}", file=sys.stderr)
        raise SystemExit(1)


def _at_least(low: int | None = None, high: int | None = None):
    """argparse type: an integer, no smaller than `low` and no larger than `high` when given."""

    def parse(text: str) -> int:
        value = read_int(text)
        if value is None:
            raise argparse.ArgumentTypeError(f"expected an integer, got {shorten(text)!r}")
        shown = shorten(str(value) if isinstance(value, int) else text.strip())
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {shown}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {shown}")
        if not isinstance(value, int):
            raise argparse.ArgumentTypeError(f"must have at most {MAX_DIGITS} digits, got {shown}")
        return value

    return parse


# a seed: any integer of at most MAX_DIGITS digits
_integer = _at_least()
# the horizon of a game the CLI plays; oracle's --horizon is capped by log2 |V|
_horizon = _at_least(1, MAX_HORIZON)


def _criteria(text: str) -> list[int]:
    try:
        return parse_criteria_spec(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e))


def _describe_tree(tree, names, indent="", side=""):
    if tree is None:
        return []
    x0, x1 = tree.pair
    y0, y1 = tree.labels
    line = f"{indent}{side}({names[x0]}:{y0}, {names[x1]}:{y1})"
    out = [line]
    out += _describe_tree(tree.zero_child, names, indent + "  ", "0> ")
    out += _describe_tree(tree.one_child, names, indent + "  ", "1> ")
    return out


def cmd_dim(args) -> int:
    sc = _load_scenario(args.scenario)
    hc, u = sc.hypotheses, sc.truth
    dim = adversarial_dimension(hc, u)
    print(f"dimension: {dim}")
    if args.classic:
        if sc.multiclass:
            print("classic: only defined for binary classes", file=sys.stderr)
            return 1
        classic = classic_littlestone_dimension(hc)
        print(f"classic (identity map): {classic}")
        if u == identity_map(hc.instance_count) and classic != dim:
            print("mismatch under the identity map", file=sys.stderr)
            return 1
    if args.tree:
        tree = witness_tree(hc, u)
        for line in _describe_tree(tree.root, sc.instance_names):
            print(line)
    return 0


def cmd_play(args) -> int:
    sc = _load_scenario(args.scenario)
    if args.seed is not None or args.horizon is not None:
        from dataclasses import replace

        game = sc.game
        if args.seed is not None:
            game = replace(game, seed=args.seed)
        if args.horizon is not None:
            game = replace(game, horizon=args.horizon)
        sc = replace(sc, game=game)
    summary, transcript = run_scenario(sc, track_dimension=args.trace)
    print(summary.to_text(), end="")
    if args.trace and summary.dimension_trace is not None:
        print("dimension trace: " + " ".join(str(d) for d in summary.dimension_trace))
    if args.transcript:
        Path(args.transcript).write_text(transcript_to_json(transcript), encoding="utf-8")
        print(f"transcript written: {args.transcript}")
    return 0


def cmd_oracle(args) -> int:
    sc = _load_scenario(args.scenario)
    hc, u = sc.hypotheses, sc.truth
    dim = adversarial_dimension(hc, u)
    print(f"dimension: {dim}")
    ok = True
    games = (args.game,) if args.game else ("robust", "orientation")
    for game in games:
        value = optimal_mistake_bound(hc, u, game=game, horizon=args.horizon)
        print(f"{game} value: {value}")
        if args.horizon is None and value != dim:
            print(f"{game} value differs from the dimension", file=sys.stderr)
            ok = False
    return 0 if ok else 1


def cmd_adversary(args) -> int:
    sc = _load_scenario(args.scenario)
    hc, u = sc.hypotheses, sc.truth
    dim = adversarial_dimension(hc, u)
    tree = witness_tree(hc, u)
    game = sc.game.protocol
    rng = derive_rng(sc.game.seed, "adversary-cli", args.learner)
    learner = make_learner(args.learner, game, hc, u, rng=rng, strict=False)
    rounds, _ = run_game(hc, u, learner, tree_adversary(game, tree, u), dim)
    forced = sum(r.loss for r in rounds)
    print(f"dimension: {dim}")
    print(f"forced mistakes against {args.learner}: {forced}")
    if args.learner == "optimal":
        return 0 if forced == dim else 1
    return 0 if forced >= dim else 1


def cmd_agnostic(args) -> int:
    sc = _load_scenario(args.scenario)
    hc, u = sc.hypotheses, sc.truth
    if sc.multiclass:
        print("agnostic aggregation is defined for binary labels", file=sys.stderr)
        return 1
    horizon = args.horizon or sc.game.horizon
    rng = derive_rng(args.seed, "agnostic-cli")
    rounds = realizable_robust_rounds(hc, u, horizon, rng)
    if not rounds:
        print("scenario admits no realizable rounds", file=sys.stderr)
        return 1
    rounds = corrupt_labels(rounds, args.corruptions, hc.label_count, rng)
    dim = adversarial_dimension(hc, u)
    exact = expected_regret(hc, u, rounds, dimension=dim)
    bound = exact["bound"]
    print(f"dimension: {dim}")
    print(f"experts: {exact['expert_count']}")
    print(f"comparator loss: {exact['comparator']}")
    print(f"expected regret: {exact['expected']:.4f}")
    print(f"bound: {bound:.4f}")
    print(f"ratio: {exact['expected'] / bound:.4f}" if bound else "ratio: n/a")
    if args.trace:
        lines = [f"{t} {p:.6f}" for t, p in enumerate(exact["probabilities"])]
        Path(args.trace).write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"trace written: {args.trace}")
    return 0 if exact["expected"] <= bound else 1


def cmd_uncertain(args) -> int:
    sc = _load_scenario(args.scenario)
    hc = sc.hypotheses
    if sc.multiclass:
        print("unknown-map learners are defined for binary labels", file=sys.stderr)
        return 1
    if args.family:
        fam_sc = _load_scenario(args.family)
        if fam_sc.instance_names != sc.instance_names:
            print("family file declares different instances", file=sys.stderr)
            return 1
        family = fam_sc.family()
    else:
        family = sc.family()
    horizon = args.horizon or sc.game.horizon
    rng = derive_rng(args.seed, "uncertain-cli")
    rounds = realizable_robust_rounds(hc, family.truth, horizon, rng)
    if not rounds:
        print("the true map admits no realizable rounds", file=sys.stderr)
        return 1
    print(f"family size: {len(family)}")
    if args.method == "halving":
        report = family_halving_run(hc, family, rounds)
        bound = halving_bound(hc, family)
        print(f"mistakes: {report.mistakes}")
        print(f"phase mistakes: {report.phase_mistakes}")
        print(f"completed phases: {report.completed_phases}")
        print(f"bound: {bound}")
        return 0 if report.mistakes <= bound else 1
    exact = family_expected_mistakes(hc, family, rounds)
    print(f"loss budget: {exact['budget']}")
    print(f"expected mistakes: {exact['expected']:.4f}")
    print(f"bound: {exact['bound']:.4f}")
    print(f"ratio: {exact['expected'] / exact['bound']:.4f}")
    print(f"realizable: {str(exact['realizable']).lower()}")
    return 0 if exact["expected"] <= exact["bound"] else 1


def cmd_gen_corpus(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.family:
        scenarios = generate_family_scenarios(args.count, seed=args.seed)
    else:
        scenarios = generate_corpus(
            CorpusParams(
                count=args.count,
                seed=args.seed,
                label_count=args.labels or 2,
                strata=tuple(args.strata or STRATA),
            )
        )
    for i, sc in enumerate(scenarios):
        (out / f"scenario_{i:04d}.txt").write_text(
            serialize_scenario(sc), encoding="utf-8"
        )
    print(f"wrote {len(scenarios)} scenarios to {out}")
    return 0


def cmd_check(args) -> int:
    passed = 0
    for n in args.criteria:
        start = time.monotonic()
        result = CRITERIA[n](FULL, args.seed)
        print(result.line())
        print(f"criterion {n} took {time.monotonic() - start:.1f}s", file=sys.stderr)
        passed += result.passed
    print(f"passed {passed} of {len(args.criteria)} criteria at scale {FULL.name}")
    return 0 if passed == len(args.criteria) else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="robust-online",
        description="Online learning against perturbation adversaries.",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("dim", help="dimension of a scenario")
    d.add_argument("scenario")
    d.add_argument("--classic", action="store_true", help="also print the classic dimension")
    d.add_argument("--tree", action="store_true", help="print a witness tree")
    d.set_defaults(fn=cmd_dim)

    pl = sub.add_parser("play", help="run one game from a scenario")
    pl.add_argument("scenario")
    pl.add_argument("--seed", type=_integer, default=None)
    pl.add_argument("--horizon", type=_horizon, default=None)
    pl.add_argument("--transcript", help="write the transcript JSON here")
    pl.add_argument("--trace", action="store_true", help="track the dimension per round")
    pl.set_defaults(fn=cmd_play)

    o = sub.add_parser("oracle", help="exact game values")
    o.add_argument("scenario")
    o.add_argument("--game", choices=("robust", "orientation"), default=None)
    o.add_argument("--horizon", type=_at_least(0), default=None)
    o.set_defaults(fn=cmd_oracle)

    a = sub.add_parser("adversary", help="force mistakes with the tree adversary")
    a.add_argument("scenario")
    a.add_argument("--learner", choices=LEARNER_NAMES, default="optimal")
    a.set_defaults(fn=cmd_adversary)

    ag = sub.add_parser("agnostic", help="exact expected regret of the aggregated learner")
    ag.add_argument("scenario")
    ag.add_argument("--horizon", type=_horizon, default=None)
    ag.add_argument("--corruptions", type=_at_least(0), default=2)
    ag.add_argument("--seed", type=_integer, default=0, help="seed of the sequence")
    ag.add_argument("--trace", help="write per-round probabilities here")
    ag.set_defaults(fn=cmd_agnostic)

    un = sub.add_parser("uncertain", help="unknown-perturbation learners")
    un.add_argument("scenario")
    un.add_argument("--method", choices=("ewa", "halving"), required=True)
    un.add_argument("--family", help="scenario file whose perturbation sections define the family")
    un.add_argument("--horizon", type=_horizon, default=None)
    un.add_argument("--seed", type=_integer, default=0, help="seed of the sequence")
    un.set_defaults(fn=cmd_uncertain)

    g = sub.add_parser("gen-corpus", help="write a deterministic scenario corpus")
    g.add_argument("--count", type=_at_least(1), default=20)
    g.add_argument("--seed", type=_integer, default=0)
    # None when not given: family scenarios are binary and unstratified
    g.add_argument("--labels", type=_at_least(2, MAX_LABELS), help="label count (default 2)")
    g.add_argument("--strata", nargs="+", choices=STRATA, help="strata (default all)")
    g.add_argument("--family", action="store_true", help="generate family scenarios")
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_gen_corpus)

    c = sub.add_parser("check", help="run the acceptance suite")
    c.add_argument("--criteria", type=_criteria, default="1-12")
    c.add_argument("--seed", type=_integer, default=0)
    c.set_defaults(fn=cmd_check)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "gen-corpus" and args.family:
        given = [f"--{key}" for key in ("labels", "strata") if getattr(args, key) is not None]
        if given:
            parser.error(f"gen-corpus --family takes no {' and '.join(given)}")
    try:
        return args.fn(args)
    except (DomainError, LimitExceeded, OSError) as e:
        print(f"robust-online {args.command}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
