"""Scenario files: a small line-oriented text format plus corpus generators.

A scenario bundles everything one game run needs: named instances and
labels, a hypothesis table, one or more named perturbation maps, and game
settings.  The format is deliberately human-writable:

    # toy scenario
    SPACES
    instances: a b c
    labels: neg pos
    HYPOTHESES
    h0: neg neg pos
    h1: pos neg pos
    PERTURBATIONS main
    a: a b
    b: -
    c: c
    GAME
    protocol: robust
    truth: main
    horizon: 8
    seed: 3
    learner: optimal
    adversary: realizable

Blank lines and '#' comments are ignored.  '-' denotes the empty set.
Without a `labels:` line the labels are 0 and 1.  Several PERTURBATIONS
sections form a family; GAME's truth names the member the harness treats
as real (by default the first).  Every GAME key is optional, and a key
given twice keeps its last value:

    protocol     robust; or orientation
    horizon      10; a positive integer
    seed         0; an integer
    learner      optimal; or one of LEARNER_NAMES
    adversary    realizable; or tree, corrupted
    corruptions  0; a nonnegative integer

Parsing is total: it always returns every positioned error it can find
instead of stopping at the first.  The text is a str; the CLI decodes
files as UTF-8 and drops a leading byte-order mark.
"""

import re
from dataclasses import dataclass, field

from .dimension import adversarial_dimension
from .errors import DomainError, ScenarioFormatError
from .learners import LEARNER_NAMES
from .model import HypothesisClass, PerturbationMap, identity_map, total_map
from .seeding import derive_rng
from .uncertain import PerturbationFamily

PROTOCOLS = ("robust", "orientation")
ADVERSARIES = ("realizable", "tree", "corrupted")
# the GAME keys whose value must be one of a fixed set of names
_CHOICES = {"protocol": PROTOCOLS, "learner": LEARNER_NAMES, "adversary": ADVERSARIES}
_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_.-]*$")
# label names of a file without a `labels:` line; not valid _NAMEs, so
# serialize_scenario leaves the line out for them
DEFAULT_LABELS = ("0", "1")


@dataclass(frozen=True)
class ParseError:
    line: int
    column: int
    message: str

    def __str__(self) -> str:
        return f"line {self.line}, column {self.column}: {self.message}"


@dataclass(frozen=True)
class GameConfig:
    protocol: str = "robust"
    horizon: int = 10
    seed: int = 0
    learner: str = "optimal"
    adversary: str = "realizable"
    corruptions: int = 0


@dataclass(frozen=True)
class Scenario:
    """A fully resolved game description.

    Name lists give the external spelling of each id; all numeric fields
    use the dense ids of the core modules.
    """

    instance_names: tuple[str, ...]
    label_names: tuple[str, ...]
    hypothesis_names: tuple[str, ...]
    hypotheses: HypothesisClass
    perturbation_names: tuple[str, ...]
    perturbations: tuple[PerturbationMap, ...]
    truth_name: str
    game: GameConfig = field(default_factory=GameConfig)

    @property
    def truth(self) -> PerturbationMap:
        return self.perturbations[self.perturbation_names.index(self.truth_name)]

    @property
    def multiclass(self) -> bool:
        return len(self.label_names) > 2

    def family(self) -> PerturbationFamily:
        return PerturbationFamily(
            self.perturbations, self.perturbation_names.index(self.truth_name)
        )


def _logical_lines(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if line.strip():
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
        stripped = line.strip()
        word = stripped.split()[0]
        if word in ("SPACES", "HYPOTHESES", "PERTURBATIONS", "GAME"):
            arg = stripped[len(word) :].strip()
            if word == "PERTURBATIONS":
                if not arg:
                    arg = f"u{sum(1 for s in sections if s[0] == 'PERTURBATIONS')}"
                elif not _NAME.match(arg):
                    err(ln, len(word) + 2, f"bad perturbation name {arg!r}")
            elif arg:
                err(ln, len(word) + 2, f"section {word} takes no argument")
                arg = ""
            current = (word, arg, ln, [])
            sections.append(current)
            first.setdefault(word, current)
            continue
        if ":" not in stripped:
            err(ln, 1, f"expected 'key: values', got {stripped!r}")
            continue
        key, _, value = stripped.partition(":")
        col = line.index(key.strip()) + 1 if key.strip() else 1
        if current is None:
            err(ln, col, f"entry {key.strip()!r} appears before any section header")
            continue
        current[3].append((ln, key.strip(), value.strip(), col))

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
            err(ln, col, f"unknown SPACES entry {key!r}")
            continue
        bad = [n for n in names if not _NAME.match(n)]
        if bad:
            err(ln, col, f"bad {key} name {bad[0]!r}")
            continue
        if len(set(names)) != len(names):
            dup = next(n for i, n in enumerate(names) if n in names[:i])
            err(ln, col, f"duplicate {key} name {dup!r}")
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
            err(ln, col, f"bad hypothesis name {key!r}")
        elif key in seen_names:
            err(ln, col, f"duplicate hypothesis name {key!r}")
        elif instance_names and len(cells) != len(instance_names):
            err(
                ln,
                col,
                f"hypothesis {key!r} has {len(cells)} labels for "
                f"{len(instance_names)} instances",
            )
        elif None in row:
            err(ln, col, f"hypothesis {key!r} uses unknown label {cells[row.index(None)]!r}")
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
        err(first["HYPOTHESES"][2], 1, f"hypothesis {dup!r} duplicates another row's table")

    # PERTURBATIONS (possibly several)
    pert_names: list[str] = []
    pert_maps: list[PerturbationMap] = []
    for word, arg, hln, rows in sections:
        if word != "PERTURBATIONS":
            continue
        if arg in pert_names:
            err(hln, 1, f"duplicate perturbation section {arg!r}")
            continue
        errors_before = len(errors)
        sets: dict[int, frozenset] = {}
        for ln, key, value, col in rows:
            x = instance_of.get(key)
            targets = value.split()
            if targets == ["-"]:
                targets = []
            if x is None:
                err(ln, col, f"unknown instance {key!r}")
            elif x in sets:
                err(ln, col, f"instance {key!r} listed twice")
            else:
                # Keep the row even when a target is bad, so a malformed
                # row is not also reported as missing.
                sets[x] = frozenset(map(instance_of.get, targets))
                if None in sets[x]:
                    bad_target = next(t for t in targets if t not in instance_of)
                    err(ln, col, f"out-of-range target {bad_target!r} in U({key})")
        missing = [n for n, i in instance_of.items() if i not in sets]
        if missing:
            err(hln, 1, f"section {arg!r} has no row for instance {missing[0]!r}")
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
                err(ln, col, f"unknown {key} {value!r}; choose from {_CHOICES[key]}")
        elif key == "truth":
            if pert_names and value not in pert_names:
                err(ln, col, f"truth {value!r} names no PERTURBATIONS section")
            else:
                truth_name = value
        elif key in ("horizon", "seed", "corruptions"):
            try:
                n = int(value)
            except ValueError:
                err(ln, col, f"{key} must be an integer, got {value!r}")
                continue
            if key == "horizon" and n <= 0:
                err(ln, col, "horizon must be positive")
            elif key == "corruptions" and n < 0:
                err(ln, col, "corruptions must be nonnegative")
            else:
                values[key] = n
        else:
            err(ln, col, f"unknown GAME entry {key!r}")

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


def parse_scenario(text: str) -> Scenario:
    scenario, errors = try_parse_scenario(text)
    if errors:
        raise ScenarioFormatError(errors)
    return scenario


def serialize_scenario(sc: Scenario) -> str:
    """Canonical text form; parse(serialize(sc)) == sc."""
    out = ["SPACES"]
    out.append("instances: " + " ".join(sc.instance_names))
    if sc.label_names != DEFAULT_LABELS:
        out.append("labels: " + " ".join(sc.label_names))
    out.append("HYPOTHESES")
    for name, h in zip(sc.hypothesis_names, sc.hypotheses):
        out.append(f"{name}: " + " ".join(sc.label_names[y] for y in h.table))
    for name, u in zip(sc.perturbation_names, sc.perturbations):
        out.append(f"PERTURBATIONS {name}")
        for x, xname in enumerate(sc.instance_names):
            targets = sorted(u.forward[x])
            cell = " ".join(sc.instance_names[z] for z in targets) if targets else "-"
            out.append(f"{xname}: {cell}")
    g = sc.game
    out.append("GAME")
    out.append(f"protocol: {g.protocol}")
    out.append(f"truth: {sc.truth_name}")
    out.append(f"horizon: {g.horizon}")
    out.append(f"seed: {g.seed}")
    out.append(f"learner: {g.learner}")
    out.append(f"adversary: {g.adversary}")
    if g.corruptions:
        out.append(f"corruptions: {g.corruptions}")
    return "\n".join(out) + "\n"


STRATA = ("identity", "total", "disjoint", "random")


@dataclass(frozen=True)
class CorpusParams:
    count: int = 200
    seed: int = 0
    label_count: int = 2
    strata: tuple[str, ...] = STRATA

    def __post_init__(self):
        # the text format, which every corpus scenario round-trips, needs two
        if self.label_count < 2:
            raise DomainError(f"a corpus needs at least two labels, got {self.label_count}")


def _random_map(n: int, rng) -> PerturbationMap:
    sets = []
    for _ in range(n):
        keep = rng.random(n) < rng.uniform(0.2, 0.8)
        sets.append({z for z in range(n) if keep[z]})
    return PerturbationMap.from_sets(sets)


def _disjoint_map(n: int, rng) -> PerturbationMap:
    # one draw per instance; about a quarter of the sets come out empty
    targets = rng.permutation(n)
    return PerturbationMap.from_sets(
        set() if rng.random() < 0.25 else {int(targets[x])} for x in range(n)
    )


def _stratum_map(stratum: str, n: int, rng) -> PerturbationMap:
    if stratum == "identity":
        return identity_map(n)
    if stratum == "total":
        return total_map(n)
    if stratum == "disjoint":
        return _disjoint_map(n, rng)
    if stratum == "random":
        return _random_map(n, rng)
    raise ValueError(f"unknown stratum {stratum!r}; choose from {STRATA}")


def _random_tables(n: int, count: int, label_count: int, rng) -> list[tuple[int, ...]]:
    # Distinct tables, capped by the size of the full function space.
    count = min(count, label_count**n)
    seen = set()
    while len(seen) < count:
        seen.add(tuple(int(v) for v in rng.integers(0, label_count, size=n)))
    return sorted(seen)


def _assemble(
    hc: HypothesisClass, maps: dict[str, PerturbationMap], truth_name: str, game: GameConfig
) -> Scenario:
    """A generated scenario: instances x0.., labels y0.., hypotheses h0.. and `maps` by name."""
    return Scenario(
        instance_names=tuple(f"x{i}" for i in range(hc.instance_count)),
        label_names=tuple(f"y{i}" for i in range(hc.label_count)),
        hypothesis_names=tuple(f"h{i}" for i in range(hc.size)),
        hypotheses=hc,
        perturbation_names=tuple(maps),
        perturbations=tuple(maps.values()),
        truth_name=truth_name,
        game=game,
    )


def generate_corpus(params: CorpusParams) -> list[Scenario]:
    """Deterministic stratified scenario corpus.

    Each scenario has 2 to 5 instances, 2 to 16 distinct hypotheses (fewer
    when the function space is smaller) and the default game settings
    (horizon 10).  Strata cycle round-robin so requested proportions are
    exact up to rounding.  The disjoint and random strata may leave
    perturbation sets empty.  Every scenario round-trips through the text
    format.
    """
    out = []
    for i in range(params.count):
        stratum = params.strata[i % len(params.strata)]
        rng = derive_rng(params.seed, "corpus", i, stratum)
        n = int(rng.integers(2, 6))
        cap = min(16, params.label_count**n)
        n_h = int(rng.integers(min(2, cap), cap + 1))
        tables = _random_tables(n, n_h, params.label_count, rng)
        hc = HypothesisClass.from_tables(tables, params.label_count)
        u = _stratum_map(stratum, n, rng)
        game = GameConfig(seed=int(rng.integers(2**31)))
        out.append(_assemble(hc, {"main": u}, "main", game))
    return out


def generate_family_scenarios(count: int, seed: int = 0) -> list[Scenario]:
    """Binary scenarios whose perturbations form a family with a hidden true member.

    Family sizes cycle through 2, 4 and 8 distinct random maps; each
    scenario has 2 to 4 instances and 2 to 8 hypotheses.  The true
    member has adversarial dimension at least 1 and at least one nonempty
    perturbation set, so realizable sequences of any length exist.
    """
    out = []
    attempt = 0
    while len(out) < count:
        rng = derive_rng(seed, "family-corpus", attempt)
        attempt += 1
        size = (2, 4, 8)[len(out) % 3]
        n = int(rng.integers(2, 5))
        n_h = int(rng.integers(2, min(8, 2**n) + 1))
        tables = _random_tables(n, n_h, 2, rng)
        hc = HypothesisClass.from_tables(tables, 2)
        members = []
        seen = set()
        guard = 0
        while len(members) < size and guard < 200:
            guard += 1
            u = _random_map(n, rng)
            if u.forward in seen:
                continue
            seen.add(u.forward)
            members.append(u)
        if len(members) < size:
            continue
        truth = int(rng.integers(size))
        u_star = members[truth]
        if adversarial_dimension(hc, u_star) == 0:
            continue
        if not any(u_star.forward[x] for x in range(n)):
            continue
        maps = {f"u{i}": m for i, m in enumerate(members)}
        game = GameConfig(horizon=12, seed=int(rng.integers(2**31)))
        out.append(_assemble(hc, maps, f"u{truth}", game))
    return out
