"""Game runners: drive a learner against an adversary, record everything.

run_game plays a game of either protocol: it hands the game to
run_robust_game or run_orientation_game by the adversary's `protocol`.
A transcript holds every emission, prediction, reveal, and loss bit, so
all summary numbers can be recomputed from it without re-running the
learner.  The runner asserts the protocol contract every round and aborts
with the violating round index when a pluggable adversary breaks it.
"""

import json
from dataclasses import asdict, dataclass, field

from ._version import __version__
from .adversaries import (
    ScriptedOrientationAdversary,
    ScriptedRobustAdversary,
    corrupt_labels,
    realizable_orientation_rounds,
    realizable_robust_rounds,
    tree_adversary,
)
from .dimension import adversarial_dimension, get_engine, witness_tree
from .errors import DomainError, ProtocolViolation
from .learners import make_learner
from .model import HypothesisClass, PerturbationMap
from .scenario import Scenario
from .seeding import derive_rng


@dataclass(slots=True)
class RobustRound:
    shown: int
    prediction: int
    clean_x: int
    clean_y: int
    loss: int


@dataclass(slots=True)
class OrientationRound:
    pair: tuple[int, int]
    labels: tuple[int, int]
    prediction: int
    side: int
    loss: int


@dataclass
class GameTranscript:
    protocol: str
    learner: str
    adversary: str
    seed: int
    rounds: list = field(default_factory=list)
    version: str = __version__


@dataclass
class RunSummary:
    protocol: str
    learner: str
    adversary: str
    seed: int
    rounds: int
    mistakes: int
    dimension: int
    events: list[str] = field(default_factory=list)
    dimension_trace: list[int] | None = None
    version: str = __version__

    def to_text(self) -> str:
        """Canonical one-value-per-line rendering; contains no wall-clock."""
        lines = [
            f"protocol: {self.protocol}",
            f"learner: {self.learner}",
            f"adversary: {self.adversary}",
            f"seed: {self.seed}",
            f"rounds: {self.rounds}",
            f"mistakes: {self.mistakes}",
            f"dimension: {self.dimension}",
            f"events: {len(self.events)}",
        ]
        return "\n".join(lines) + "\n"


def _track_dimension(trace: list, learner, engine) -> None:
    """Append the dimension of the learner's version space, if it has one."""
    mask = getattr(learner, "mask", None)
    if mask is not None:
        trace.append(engine.dimension_of_mask(mask))


def run_robust_game(
    hc: HypothesisClass,
    u: PerturbationMap,
    learner,
    adversary,
    horizon: int,
    track_dimension: bool = False,
):
    """Drive one robust game to adversary exhaustion or the horizon.

    Returns (transcript rounds, dimension trace or None).  Asserts each
    round that the shown input and the revealed clean instance are in
    range, before reading them, and that the instance perturbs to the input.
    """
    rounds = []
    trace = [] if track_dimension else None
    engine = get_engine(hc, u) if track_dimension else None
    n = u.instance_count
    for t in range(horizon):
        z = adversary.emit()
        if z is None:
            break
        if not 0 <= z < n:
            raise ProtocolViolation(f"round {t}: shown input {z} is out of range")
        pred = learner.predict(z)
        x, y = adversary.reveal(pred)
        if not 0 <= x < n:
            raise ProtocolViolation(f"round {t}: clean instance {x} is out of range")
        if z not in u.forward[x]:
            raise ProtocolViolation(
                f"round {t}: clean instance {x} does not perturb to shown input {z}"
            )
        if not 0 <= y < hc.label_count:
            raise ProtocolViolation(f"round {t}: revealed label {y} is out of range")
        learner.update(z, x, y)
        rounds.append(RobustRound(z, pred, x, y, int(pred != y)))
        if engine is not None:
            _track_dimension(trace, learner, engine)
    return rounds, trace


def run_orientation_game(
    hc: HypothesisClass,
    u: PerturbationMap,
    learner,
    adversary,
    horizon: int,
    track_dimension: bool = False,
):
    """Drive one orientation game; queries name compatible pairs and two distinct labels."""
    rounds = []
    trace = [] if track_dimension else None
    engine = get_engine(hc, u) if track_dimension else None
    n, labels = u.instance_count, hc.label_count
    for t in range(horizon):
        query = adversary.query()
        if query is None:
            break
        a, b = query.pair
        if not (0 <= a < n and 0 <= b < n):
            raise ProtocolViolation(f"round {t}: query pair {query.pair} out of range")
        if u.forward[a].isdisjoint(u.forward[b]):
            raise ProtocolViolation(
                f"round {t}: query pair {query.pair} has disjoint perturbation sets"
            )
        y0, y1 = ys = query.labels
        if not (0 <= y0 < labels and 0 <= y1 < labels) or y0 == y1:
            raise ProtocolViolation(f"round {t}: query labels {ys} are not two distinct labels")
        pred = learner.predict(query)
        side = adversary.reveal(pred)
        if side not in (0, 1):
            raise ProtocolViolation(f"round {t}: revealed side {side} is not 0 or 1")
        learner.update(query, side)
        rounds.append(
            OrientationRound(
                query.pair, query.labels, pred, side, int(pred != query.labels[side])
            )
        )
        if engine is not None:
            _track_dimension(trace, learner, engine)
    return rounds, trace


def run_game(
    hc: HypothesisClass,
    u: PerturbationMap,
    learner,
    adversary,
    horizon: int,
    track_dimension: bool = False,
):
    """Play one game of the adversary's protocol with the matching runner.

    Returns what that runner returns: (transcript rounds, dimension trace
    or None).
    """
    if adversary.protocol == "robust":
        run = run_robust_game
    elif adversary.protocol == "orientation":
        run = run_orientation_game
    else:
        raise ValueError(f"unknown protocol {adversary.protocol!r}")
    return run(hc, u, learner, adversary, horizon, track_dimension)


def build_adversary(sc: Scenario, rng):
    """Instantiate the adversary a scenario names, for its truth map."""
    hc, u, g = sc.hypotheses, sc.truth, sc.game
    if g.adversary == "tree":
        return tree_adversary(g.protocol, witness_tree(hc, u), u)
    if g.protocol == "robust":
        rounds = realizable_robust_rounds(hc, u, g.horizon, rng)
        if not rounds:
            raise DomainError(
                "the truth map admits no realizable robust rounds for this class"
            )
        if g.adversary == "corrupted":
            rounds = corrupt_labels(rounds, g.corruptions, hc.label_count, rng)
        return ScriptedRobustAdversary(rounds)
    rounds = realizable_orientation_rounds(hc, u, g.horizon, rng)
    if not rounds:
        raise DomainError(
            "the truth map admits no realizable orientation rounds for this class"
        )
    if g.adversary == "corrupted":
        raise DomainError("label corruption is defined for the robust protocol only")
    return ScriptedOrientationAdversary(rounds)


def run_scenario(sc: Scenario, track_dimension: bool = False):
    """Execute a scenario end to end; returns (RunSummary, GameTranscript).

    Learners run tolerantly here so that corrupted or hand-written
    scenarios cannot crash the run; anything unusual lands in events.
    """
    hc, u, g = sc.hypotheses, sc.truth, sc.game
    rng = derive_rng(g.seed, "run", g.protocol, g.learner, g.adversary)
    learner = make_learner(g.learner, g.protocol, hc, u, rng=rng, strict=False)
    adversary = build_adversary(sc, rng)
    rounds, trace = run_game(hc, u, learner, adversary, g.horizon, track_dimension)
    summary = RunSummary(
        protocol=g.protocol,
        learner=g.learner,
        adversary=g.adversary,
        seed=g.seed,
        rounds=len(rounds),
        mistakes=sum(r.loss for r in rounds),
        dimension=adversarial_dimension(hc, u),
        events=list(getattr(learner, "events", [])),
        dimension_trace=trace,
    )
    transcript = GameTranscript(
        protocol=g.protocol,
        learner=g.learner,
        adversary=g.adversary,
        seed=g.seed,
        rounds=rounds,
    )
    return summary, transcript


def transcript_to_json(tr: GameTranscript) -> str:
    return json.dumps(asdict(tr), indent=2, sort_keys=True) + "\n"

