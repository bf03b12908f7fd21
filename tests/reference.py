"""Definitional references the tests check the package against.

The package computes the robust loss only through its consistency masks
(`model.consistency_masks`).  The per-hypothesis definition of that loss
and the helpers the tests build around it live here, outside the
package, so the package keeps one source of the robust loss.

The package runs the robust reduction only as state ids on its
`LearnerContext`, and makes no expert objects: `agnostic` replays the
subset pool by groups, and `uncertain` steps the family experts as state
ids.  The object references live here instead: the reduction as an
object with writable masks and an embedded SOA orientation learner, with
no memo; the agnostic learner on it (the tolerant lazy reduction,
predicting 0 once its version space is empty), a plain subset expert on
that, the family experts, the replay that drives any pool of experts into
prediction and loss matrices, a forecaster stepped round by round, and
its expected mistakes as a walk over every outcome of its coins.
The corpus generator's tables have a reference too: one rng.integers
call per row, the loop the generator's block draws stand for.  The
worst-case walk of the optimal learners has a plain search over reveal
sequences, replayed on fresh learner objects.  The transcript reader,
the inverse of `runner.transcript_to_json`, lives here too: no command
reads a transcript back, and the round-trip tests do.  So do the set of
compatible pairs and the preimages U⁻¹(z), which the package reads only
as the nodes and the inputs of `model.Game`, and the scenario parser as
it was before it read a file in one scan (the mutation property checks
the package's parser against it).
"""

import copy
import itertools
import json
import math
from dataclasses import fields

import numpy as np

from robust_online import (
    Hypothesis,
    HypothesisClass,
    OrientationQuery,
    PerturbationMap,
    RobustReductionLearner,
    SoaOrientationLearner,
)
from robust_online.errors import DomainError, ProtocolViolation, SearchInvariantError
from robust_online.learners import LazyRobustLearner
from robust_online.model import consistency_masks
from robust_online.runner import GameTranscript, OrientationRound, RobustRound
from robust_online.scenario import (
    _CHOICES,
    _NAME,
    DEFAULT_LABELS,
    MAX_HORIZON,
    GameConfig,
    ParseError,
    Scenario,
    shorten,
)


def compatible_pairs(u: PerturbationMap) -> set[tuple[int, int]]:
    """Ordered instance pairs whose perturbation sets intersect.

    These are exactly the pairs an orientation-game adversary may present,
    and the node alphabet of shattered trees.  Symmetric by construction;
    (x, x) appears iff U(x) is nonempty.
    """
    n = u.instance_count
    return {
        (a, b)
        for a in range(n)
        for b in range(n)
        if not u.forward[a].isdisjoint(u.forward[b])
    }


def preimage(u: PerturbationMap, z: int) -> list[int]:
    """The x with z in U(x), in increasing order, read off the forward sets."""
    return [x for x in range(u.instance_count) if z in u.forward[x]]


def empty_map(n: int) -> PerturbationMap:
    return PerturbationMap.from_sets([set()] * n)


def one_row_per_call_tables(n: int, count: int, label_count: int, rng) -> list[tuple[int, ...]]:
    """`count` distinct tables (at most label_count**n), one rng.integers call per row."""
    count = min(count, label_count**n)
    seen = set()
    while len(seen) < count:
        seen.add(tuple(int(v) for v in rng.integers(0, label_count, size=n)))
    return sorted(seen)


def adversarial_loss(h: Hypothesis, x: int, y: int, u: PerturbationMap) -> int:
    """1 if some admissible perturbation of x gets a label other than y.

    The supremum over an empty perturbation set is 0: an instance that
    cannot be presented at all can never be misclassified.
    """
    if not 0 <= x < u.instance_count:
        raise DomainError(f"instance id {x} outside [0, {u.instance_count})")
    if not 0 <= y < h.label_count:
        raise DomainError(f"label id {y} outside [0, {h.label_count})")
    if len(h.table) != u.instance_count:
        raise DomainError("hypothesis and perturbation map cover different spaces")
    return int(any(h.table[z] != y for z in u.forward[x]))


def is_realizable_sequence(pairs, hc, u: PerturbationMap) -> bool:
    """True iff one hypothesis has zero adversarial loss on the whole
    sequence, read off the class's tables and the map's forward sets."""
    return any(all(t[z] == y for x, y in pairs for z in u.forward[x]) for t in hc.tables)


def family_explains(hc, members, rounds) -> bool:
    """True iff some member explains the robust rounds (z, x, y): every
    shown input lies in its perturbation set of the revealed instance,
    and one hypothesis has zero adversarial loss on every revealed pair."""
    pairs = [(x, y) for _, x, y in rounds]
    return any(
        all(z in u.forward[x] for z, x, _ in rounds) and is_realizable_sequence(pairs, hc, u)
        for u in members
    )


def plain_worst_case(hc, u, game):
    """The most mistakes the strict optimal learner of `game` makes over
    every realizable sequence, by a search over reveal sequences with no
    memo.

    Every prefix is replayed on fresh strict RobustReductionLearner or
    SoaOrientationLearner objects.  A reveal is realizable when one
    hypothesis has zero adversarial loss on all the clean pairs revealed
    so far; in the orientation game the pairs are compatible and carry
    (0, 1) on two labels, or any two distinct labels on more, where of a
    query and its mirror image (both sides swapped) only the first is
    played: the SOA rule is side-symmetric, so the mirror's reveals repeat
    the query's.  A reveal that leaves the learner's state as it was is not
    followed: repeating it changes nothing, unless it costs a mistake,
    which makes the worst case unbounded (math.inf).
    """
    labels, multiclass = range(hc.label_count), hc.label_count > 2
    if game == "robust":
        reveals = [
            ((z, x, y), (x, y))
            for x in range(u.instance_count)
            for z in sorted(u.forward[x])
            for y in labels
        ]

        def fresh():
            return RobustReductionLearner(hc, u)

        def play(learner, move):
            z, x, y = move
            miss = learner.predict(z) != y
            learner.update(z, x, y)
            return miss

        def state(learner):
            return learner.s

    else:
        label_pairs = [(a, b) for a in labels for b in labels if a != b] if multiclass else [(0, 1)]
        reveals = [
            ((OrientationQuery(pair, pair_labels), side), (pair[side], pair_labels[side]))
            for pair in sorted(compatible_pairs(u))
            for pair_labels in label_pairs
            if not multiclass or (pair, pair_labels) <= (pair[::-1], pair_labels[::-1])
            for side in (0, 1)
        ]

        def fresh():
            return SoaOrientationLearner(hc, u)

        def play(learner, move):
            query, side = move
            miss = learner.predict(query) != query.labels[side]
            learner.update(query, side)
            return miss

        def state(learner):
            return learner.mask

    def replay(prefix):
        """(mistakes, state) of a fresh learner after the prefix."""
        learner = fresh()
        mistakes = sum(play(learner, move) for move in prefix)
        return mistakes, state(learner)

    def search(prefix, pairs):
        mistakes, before = replay(prefix)
        best = mistakes
        for move, pair in reveals:
            if not is_realizable_sequence(pairs + [pair], hc, u):
                continue
            after, next_state = replay(prefix + [move])
            if next_state == before:
                if after > mistakes:
                    return math.inf
                continue
            best = max(best, search(prefix + [move], pairs + [pair]))
        return best

    return search([], [])


class ExponentialWeightsForecaster:
    """Exponential weights stepped one round at a time."""

    def __init__(self, n_experts: int, rate: float):
        if n_experts < 1:
            raise ValueError("need at least one expert")
        if rate <= 0:
            raise ValueError("the learning rate must be positive")
        self.rate = rate
        self.weights = np.ones(n_experts)

    def probability(self, predictions) -> float:
        """Probability of predicting 1 given the experts' 0/1 votes."""
        preds = np.asarray(predictions, dtype=float)
        return float(self.weights @ preds / self.weights.sum())

    def predict(self, predictions, rng) -> int:
        return int(rng.random() < self.probability(predictions))

    def update(self, losses) -> None:
        self.weights = self.weights * np.exp(
            -self.rate * np.asarray(losses, dtype=float)
        )
        self.weights /= self.weights.max()


class PlainReductionLearner:
    """The robust reduction as an object: the robust mask and an embedded
    tolerant SOA orientation learner, both writable, deciding every
    prediction afresh.

    A label y wins when one of its candidates P[y] is oriented toward y
    against every candidate of every other label; with none, it answers 1
    on two labels and 0 on more.  On a mistake the first
    wrongly oriented counterpart query is fed to the orientation learner.
    """

    game = "robust"

    def __init__(self, hc, u, strict=True):
        self.hc, self.u, self.strict = hc, u, strict
        self._masks = consistency_masks(hc, u)
        self.orientation = SoaOrientationLearner(hc, u, strict=False)
        self.mask = (1 << hc.size) - 1
        self.events = []

    def candidate_sets(self, z):
        """P[y]: preimage candidates of z whose (x, y) restriction survives."""
        pre = preimage(self.u, z)
        return [
            [x for x in pre if self.mask & self._masks[x][y]]
            for y in range(self.hc.label_count)
        ]

    def predict(self, z):
        cands = self.candidate_sets(z)
        orient = self.orientation.predict
        for y, py in enumerate(cands):
            for xy in py:
                if all(
                    orient(OrientationQuery((xy, x2), (y, y2))) == y
                    for y2, p2 in enumerate(cands)
                    if y2 != y
                    for x2 in p2
                ):
                    return y
        return 0 if self.hc.label_count > 2 else 1

    _compute = predict  # update's prediction, past any patch on predict

    def _feed_counterpart(self, x, y, cands):
        for y2, p2 in enumerate(cands):
            if y2 == y:
                continue
            for x2 in p2:
                query = OrientationQuery((x, x2), (y, y2))
                if self.orientation.predict(query) == y2:
                    self.orientation.update(query, 0)
                    return True
        return False

    def update(self, z, x, y):
        if z not in self.u.forward[x]:
            if self.strict:
                raise ProtocolViolation(
                    f"revealed clean instance {x} does not perturb to the "
                    f"shown input {z}"
                )
            self.events.append("input-outside-belief")
        if self._compute(z) != y and not self._feed_counterpart(x, y, self.candidate_sets(z)):
            if self.strict:
                raise SearchInvariantError(
                    "mistake round has no wrongly oriented counterpart; "
                    "this cannot happen on a realizable sequence"
                )
            self.events.append("missing-counterpart")
        new = self.mask & self._masks[x][y]
        if new == 0:
            if self.strict:
                raise ProtocolViolation(
                    "clean reveal emptied the version space; "
                    "the sequence is not realizable"
                )
            if self.mask != 0:
                self.events.append("version-space-emptied")
        self.mask = new


class EmptiedPredictsZero(PlainReductionLearner):
    """The tolerant robust learner, predicting 0 once its version space is
    empty; update reads the same prediction."""

    def __init__(self, hc, u, strict=False):
        super().__init__(hc, u, strict)

    def predict(self, z):
        return 0 if self.mask == 0 else super().predict(z)

    _compute = predict


def agnostic_learner(hc, u):
    """The learner the agnostic replays run: EmptiedPredictsZero, updated
    only on its mistakes."""
    return LazyRobustLearner(EmptiedPredictsZero(hc, u))


class PlainSubsetExpert:
    """A_J on a plain agnostic learner, shown only the rounds in J."""

    def __init__(self, indices, hc, u):
        self.indices = indices
        self.learner = agnostic_learner(hc, u)
        self.round = 0

    def predict(self, z):
        return self.learner.predict(z)

    def update(self, z, x, y):
        if self.round in self.indices:
            self.learner.update(z, x, y)
        self.round += 1


def plain_subset_pool(hc, u, horizon, dimension):
    """One plain expert per round subset of size at most dimension."""
    return [
        PlainSubsetExpert(combo, hc, u)
        for k in range(min(dimension, horizon) + 1)
        for combo in itertools.combinations(range(horizon), k)
    ]


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


def enumerated_expected_mistakes(preds, losses, labels, rate):
    """Expected mistakes of the stepwise forecaster on (n_experts, T)
    prediction and loss matrices: the sum, over all 2^T outcomes of its
    coins, of each outcome's chance times its mistakes.  Every branch of
    the walk steps its own copy of the forecaster, so nothing here assumes
    that the probabilities ignore the coins."""
    horizon = len(labels)

    def walk(t, fore, chance, mistakes):
        if t == horizon:
            return chance * mistakes
        p = fore.probability(preds[:, t])
        total = 0.0
        for coin, q in ((1, p), (0, 1.0 - p)):
            branch = copy.deepcopy(fore)
            branch.update(losses[:, t])
            total += walk(t + 1, branch, chance * q, mistakes + (coin != labels[t]))
        return total

    return walk(0, ExponentialWeightsForecaster(len(preds), rate), 1.0, 0)


def build_family_experts(hc, members):
    """One tolerant robust learner per candidate map, in member order.

    Experts play binary games, so an emptied version space leaves no
    winning label and they predict the no-winner default 1.
    """
    return [PlainReductionLearner(hc, u, strict=False) for u in members]


def expert_matrices(experts, rounds):
    """(predictions, losses) 0/1 arrays of shape (n_experts, horizon).

    Every round each robust-game expert is asked predict(z), then shown
    update(z, x, y).
    """
    rounds = list(rounds)
    if not rounds:
        raise DomainError("need at least one round")
    preds = np.zeros((len(experts), len(rounds)), dtype=np.int8)
    for t, (z, x, y) in enumerate(rounds):
        for i, e in enumerate(experts):
            preds[i, t] = e.predict(z)
        for e in experts:
            e.update(z, x, y)
    labels = np.array([y for _, _, y in rounds], dtype=np.int8)
    return preds, (preds != labels[None, :]).astype(np.int8)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _checked(where: str, key: str, value):
    """A transcript field's value, pairs as tuples; a value no run can write is a DomainError.

    Instances, labels and predictions are nonnegative, and an orientation
    query's two labels differ.  The seed may be any integer; loss and side
    are checked against their round by the caller.
    """
    if key in ("learner", "adversary", "version"):
        if isinstance(value, str):
            return value
        raise DomainError(f"{where}{key!r} must be a string, got {type(value).__name__}")
    if key in ("pair", "labels"):
        if not (isinstance(value, list) and len(value) == 2 and all(map(_is_int, value))):
            raise DomainError(f"{where}{key!r} must be a list of two integers")
        if min(value) < 0:
            raise DomainError(f"{where}{key!r} must not be negative, got {value}")
        if key == "labels" and value[0] == value[1]:
            raise DomainError(f"{where}'labels' must be two different labels, got {value}")
        return tuple(value)
    if not _is_int(value):
        raise DomainError(f"{where}{key!r} must be an integer, got {type(value).__name__}")
    if value < 0 and key in ("shown", "prediction", "clean_x", "clean_y"):
        raise DomainError(f"{where}{key!r} must not be negative, got {value}")
    return value


def transcript_from_json(text: str) -> GameTranscript:
    """Inverse of transcript_to_json; input it cannot have written is a DomainError."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise DomainError(f"transcript is not valid JSON: {err}") from None
    if not isinstance(data, dict):
        raise DomainError(f"transcript must be a JSON object, got {type(data).__name__}")
    for key in ("protocol", "learner", "adversary", "seed", "rounds"):
        if key not in data:
            raise DomainError(f"transcript has no {key!r} key")
    protocol = data["protocol"]
    if protocol not in ("robust", "orientation"):
        raise DomainError(f"transcript has unknown protocol {protocol!r}")
    cls = RobustRound if protocol == "robust" else OrientationRound
    if not isinstance(data["rounds"], list):
        raise DomainError("transcript rounds must be a JSON list")
    names = {f.name for f in fields(cls)}
    rounds = []
    for i, r in enumerate(data["rounds"]):
        where = f"transcript round {i}: "
        if not isinstance(r, dict):
            raise DomainError(f"{where}expected an object, got {type(r).__name__}")
        odd = sorted(names.symmetric_difference(r))
        if odd:
            kind = "unknown" if odd[0] in r else "missing"
            raise DomainError(f"{where}{kind} key {odd[0]!r}")
        played = cls(**{key: _checked(where, key, value) for key, value in r.items()})
        side = played.side if protocol == "orientation" else 0
        if side not in (0, 1):
            raise DomainError(f"{where}'side' must be 0 or 1, got {side}")
        label = played.labels[side] if protocol == "orientation" else played.clean_y
        if played.loss != (loss := int(played.prediction != label)):
            raise DomainError(
                f"{where}'loss' must be {loss} for prediction {played.prediction} "
                f"and revealed label {label}, got {played.loss}"
            )
        rounds.append(played)
    top = {
        key: _checked("transcript ", key, data[key])
        for key in ("learner", "adversary", "seed", "version")
        if key in data
    }
    return GameTranscript(protocol=protocol, rounds=rounds, **top)


def _logical_lines(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].rstrip()
        if line:
            yield i, line


def try_parse_scenario(text: str):
    """(scenario or None, positioned errors).  Never raises on bad input."""
    errors: list[ParseError] = []

    def err(line, column, message):
        errors.append(ParseError(line, column, message))

    # First pass: split into sections.
    sections = []  # (header word, header arg, header line, [(line, key, value, col)])
    first = {}  # header word -> its first section
    current = None
    for ln, line in _logical_lines(text):
        stripped = line.lstrip()
        parts = stripped.split(None, 1)
        word = parts[0]
        if word in ("SPACES", "HYPOTHESES", "PERTURBATIONS", "GAME"):
            arg = parts[1] if len(parts) > 1 else ""
            if word == "PERTURBATIONS":
                if not arg:
                    arg = f"u{sum(1 for s in sections if s[0] == 'PERTURBATIONS')}"
                elif not _NAME.match(arg):
                    err(ln, len(word) + 2, f"bad perturbation name {shorten(arg)!r}")
            elif arg:
                err(ln, len(word) + 2, f"section {word} takes no argument")
                arg = ""
            current = (word, arg, ln, [])
            sections.append(current)
            first.setdefault(word, current)
            continue
        key, colon, value = stripped.partition(":")
        if not colon:
            err(ln, 1, f"expected 'key: values', got {shorten(stripped)!r}")
            continue
        key = key.rstrip()
        # the key starts right after the line's leading blanks
        col = len(line) - len(stripped) + 1 if key else 1
        if current is None:
            err(ln, col, f"entry {shorten(key)!r} appears before any section header")
            continue
        current[3].append((ln, key, value.strip(), col))

    for word in ("SPACES", "HYPOTHESES", "PERTURBATIONS"):
        if word not in first:
            err(len(text.splitlines()) or 1, 1, f"missing {word} section")
    for word in ("SPACES", "HYPOTHESES", "GAME"):
        again = [s for s in sections if s[0] == word][1:]
        if again:
            err(again[0][2], 1, f"duplicate {word} section")

    def entries(word):
        return first[word][3] if word in first else []

    # SPACES
    instance_names: tuple[str, ...] = ()
    label_names: tuple[str, ...] = DEFAULT_LABELS
    for ln, key, value, col in entries("SPACES"):
        names = tuple(value.split())
        if key not in ("instances", "labels"):
            err(ln, col, f"unknown SPACES entry {shorten(key)!r}")
            continue
        bad = [n for n in names if not _NAME.match(n)]
        if bad:
            err(ln, col, f"bad {key} name {shorten(bad[0])!r}")
            continue
        if len(set(names)) != len(names):
            dup = next(n for i, n in enumerate(names) if n in names[:i])
            err(ln, col, f"duplicate {key} name {shorten(dup)!r}")
            continue
        if key == "instances":
            instance_names = names
        else:
            if len(names) < 2:
                err(ln, col, "need at least two labels")
                continue
            label_names = names
    if not instance_names and "SPACES" in first:
        err(first["SPACES"][2], 1, "SPACES must declare instances")

    label_of = {n: i for i, n in enumerate(label_names)}
    instance_of = {n: i for i, n in enumerate(instance_names)}

    # HYPOTHESES
    hyp_names: list[str] = []
    seen_names: set[str] = set()
    tables: list[tuple[int, ...]] = []
    for ln, key, value, col in entries("HYPOTHESES"):
        cells = value.split()
        row = tuple(map(label_of.get, cells))
        if not _NAME.match(key):
            err(ln, col, f"bad hypothesis name {shorten(key)!r}")
        elif key in seen_names:
            err(ln, col, f"duplicate hypothesis name {shorten(key)!r}")
        elif instance_names and len(cells) != len(instance_names):
            err(
                ln,
                col,
                f"hypothesis {shorten(key)!r} has {len(cells)} labels for "
                f"{len(instance_names)} instances",
            )
        elif None in row:
            bad = shorten(cells[row.index(None)])
            err(ln, col, f"hypothesis {shorten(key)!r} uses unknown label {bad!r}")
        else:
            hyp_names.append(key)
            seen_names.add(key)
            tables.append(row)
    if not tables and "HYPOTHESES" in first:
        err(first["HYPOTHESES"][2], 1, "HYPOTHESES must declare at least one hypothesis")
    if len(set(tables)) != len(tables):
        first_row: dict[tuple[int, ...], str] = {}
        dup = next(
            name
            for name, table in zip(hyp_names, tables)
            if first_row.setdefault(table, name) != name
        )
        message = f"hypothesis {shorten(dup)!r} duplicates another row's table"
        err(first["HYPOTHESES"][2], 1, message)

    # PERTURBATIONS (possibly several)
    pert_names: list[str] = []
    pert_maps: list[PerturbationMap] = []
    for word, arg, hln, rows in sections:
        if word != "PERTURBATIONS":
            continue
        if arg in pert_names:
            err(hln, 1, f"duplicate perturbation section {shorten(arg)!r}")
            continue
        errors_before = len(errors)
        sets: dict[int, frozenset] = {}
        for ln, key, value, col in rows:
            x = instance_of.get(key)
            targets = value.split()
            if targets == ["-"]:
                targets = []
            if x is None:
                err(ln, col, f"unknown instance {shorten(key)!r}")
            elif x in sets:
                err(ln, col, f"instance {shorten(key)!r} listed twice")
            else:
                # Keep the row even when a target is bad, so a malformed
                # row is not also reported as missing.
                sets[x] = frozenset(map(instance_of.get, targets))
                if None in sets[x]:
                    bad = shorten(next(t for t in targets if t not in instance_of))
                    err(ln, col, f"out-of-range target {bad!r} in U({shorten(key)})")
        missing = [n for n, i in instance_of.items() if i not in sets]
        if missing:
            err(hln, 1, f"section {shorten(arg)!r} has no row for instance {shorten(missing[0])!r}")
        if len(errors) == errors_before and instance_names:
            pert_names.append(arg)
            pert_maps.append(
                PerturbationMap(tuple(sets[i] for i in range(len(instance_names))))
            )

    # GAME
    values = {}
    truth_name = pert_names[0] if pert_names else ""
    for ln, key, value, col in entries("GAME"):
        if key in _CHOICES:
            if value in _CHOICES[key]:
                values[key] = value
            else:
                err(ln, col, f"unknown {key} {shorten(value)!r}; choose from {_CHOICES[key]}")
        elif key == "truth":
            if pert_names and value not in pert_names:
                err(ln, col, f"truth {shorten(value)!r} names no PERTURBATIONS section")
            else:
                truth_name = value
        elif key in ("horizon", "seed", "corruptions"):
            try:
                n = int(value)
            except ValueError:
                err(ln, col, f"{key} must be an integer, got {shorten(value)!r}")
                continue
            if key == "horizon" and n <= 0:
                err(ln, col, "horizon must be positive")
            elif key == "horizon" and n > MAX_HORIZON:
                err(ln, col, f"horizon must be at most {MAX_HORIZON}")
            elif key == "corruptions" and n < 0:
                err(ln, col, "corruptions must be nonnegative")
            else:
                values[key] = n
        else:
            err(ln, col, f"unknown GAME entry {shorten(key)!r}")

    if errors:
        return None, errors
    scenario = Scenario(
        instance_names=instance_names,
        label_names=label_names,
        hypothesis_names=tuple(hyp_names),
        hypotheses=HypothesisClass.from_tables(tables, len(label_names)),
        perturbation_names=tuple(pert_names),
        perturbations=tuple(pert_maps),
        truth_name=truth_name,
        game=GameConfig(**values),
    )
    return scenario, []

