"""In-memory span tracer for the traced benchmark run.

The benchmark's own code opens a span around each call it makes into a
package module.  For calls the package makes internally (learner predict
and update inside the runner and the expert replay, the forecaster
trajectory inside the estimates, restrict inside is_shattered, ...) the
tracer installs wrappers on the module and class attributes listed in
PATCHES, and removes them again when the traced section ends.  The
untraced run installs nothing.

A span's self time is its duration minus the time covered by its child
spans.  A learner method called from inside another learner span opens
no span: it is part of the caller's span, not a second call into
`learners`.  Top-level spans (the benchmark's own calls) are kept as
individual records; nested spans are aggregated per (parent, child) name
pair to keep memory flat.
"""

import importlib
import time

# (target id, module, class or None, attribute, span name, extra counters)
# Extra counters: "every" is bumped on each call, "outer" only on calls
# counted into the layer.
PATCHES = (
    ("dimension.restrict", "dimension", None, "restrict", "model.restrict", {}),
    ("agnostic.build_subset_experts", "agnostic", None, "build_subset_experts", "agnostic.build", {}),
    ("agnostic.comparator_loss", "agnostic", None, "comparator_loss", "agnostic.comparator", {}),
    ("agnostic.weight_trajectory", "agnostic", None, "weight_trajectory", "forecaster.trajectory", {}),
    ("uncertain.weight_trajectory", "uncertain", None, "weight_trajectory", "forecaster.trajectory", {}),
    ("agnostic.derive_rng", "agnostic", None, "derive_rng", "seeding.derive", {}),
    ("uncertain.derive_rng", "uncertain", None, "derive_rng", "seeding.derive", {}),
    ("agnostic.witness_tree", "agnostic", None, "witness_tree", "dimension.witness", {}),
    ("SoaOrientationLearner.side_dimensions", "learners", "SoaOrientationLearner",
     "side_dimensions", "dimension.lookup", {"weight": 2}),
    ("RobustReductionLearner.predict", "learners", "RobustReductionLearner", "predict",
     "learners.predict", {"every": "robust_predicts", "outer": "robust_rounds"}),
    ("LazyRobustLearner.predict", "learners", "LazyRobustLearner", "predict",
     "learners.predict", {"outer": "robust_rounds"}),
) + tuple(
    (f"{cls}.{attr}", "learners", cls, attr, f"learners.{span}", {})
    for cls in (
        "RobustReductionLearner",
        "SoaOrientationLearner",
        "LazyRobustLearner",
        "LazyOrientationLearner",
        "ConstantLearner",
        "RandomLearner",
        "MajorityLearner",
    )
    for attr, span in (("__init__", "init"), ("predict", "predict"), ("update", "update"))
    if f"{cls}.{attr}" not in ("RobustReductionLearner.predict", "LazyRobustLearner.predict")
)

# Learners call one another (a lazy wrapper its inner learner, the robust
# reduction its orientation learner).  Such nested calls open no span:
# their time is the caller's, and only the outermost call counts.
FOLDED_LAYER = "learners."

_LEARNER_TARGETS = tuple(p[0] for p in PATCHES if p[4].startswith("learners."))
_REPLAY_TARGETS = (
    "agnostic.build_subset_experts",
    "agnostic.comparator_loss",
    "agnostic.weight_trajectory",
    "uncertain.weight_trajectory",
    "agnostic.derive_rng",
    "uncertain.derive_rng",
    "agnostic.witness_tree",
)

# Per-layer metric -> (kind, source, unit).  Kinds: "self" is the summed
# self time of a span name, "calls" its call count into the layer,
# "count" a tally the workload or a wrapper records.
LAYER_METRICS = {
    "scenario.parse_s": ("self", "scenario.parse", "s"),
    "scenario.parse_calls": ("calls", "scenario.parse", "count"),
    "model.restrict_s": ("self", "model.restrict", "s"),
    "model.restrict_calls": ("calls", "model.restrict", "count"),
    "dimension.search_s": ("self", "dimension.search", "s"),
    "dimension.search_calls": ("calls", "dimension.search", "count"),
    "dimension.witness_s": ("self", "dimension.witness", "s"),
    "dimension.shattered_s": ("self", "dimension.shattered", "s"),
    "dimension.classic_s": ("self", "dimension.classic", "s"),
    "dimension.lookup_s": ("self", "dimension.lookup", "s"),
    "dimension.lookup_calls": ("calls", "dimension.lookup", "count"),
    "oracle.value_s": ("self", "oracle.value", "s"),
    "oracle.value_calls": ("calls", "oracle.value", "count"),
    "adversaries.gen_robust_s": ("self", "adversaries.gen_robust", "s"),
    "adversaries.gen_orientation_s": ("self", "adversaries.gen_orientation", "s"),
    "adversaries.gen_calls": ("count", "adversaries.gen_calls", "count"),
    "adversaries.rounds": ("count", "adversaries.rounds", "count"),
    "learners.init_s": ("self", "learners.init", "s"),
    "learners.init_calls": ("calls", "learners.init", "count"),
    "learners.predict_s": ("self", "learners.predict", "s"),
    "learners.predict_calls": ("calls", "learners.predict", "count"),
    "learners.update_s": ("self", "learners.update", "s"),
    "learners.update_calls": ("calls", "learners.update", "count"),
    "learners.predicts_per_round": ("ratio", ("robust_predicts", "robust_rounds"), "ratio"),
    "runner.self_s": ("self", "runner.game", "s"),
    "runner.games": ("calls", "runner.game", "count"),
    "runner.rounds": ("count", "runner.rounds", "count"),
    "agnostic.estimate_self_s": ("self", "agnostic.estimate", "s"),
    "agnostic.build_s": ("self", "agnostic.build", "s"),
    "agnostic.comparator_s": ("self", "agnostic.comparator", "s"),
    "agnostic.experts": ("count", "agnostic.experts", "count"),
    "agnostic.expert_rounds": ("count", "agnostic.expert_rounds", "count"),
    "agnostic.probe_self_s": ("self", "agnostic.probe", "s"),
    "agnostic.probe_rounds": ("count", "agnostic.probe_rounds", "count"),
    "forecaster.trajectory_s": ("self", "forecaster.trajectory", "s"),
    "forecaster.expert_rounds": ("count", "forecaster.expert_rounds", "count"),
    "uncertain.estimate_self_s": ("self", "uncertain.estimate", "s"),
    "uncertain.expert_rounds": ("count", "uncertain.expert_rounds", "count"),
    "seeding.derive_s": ("self", "seeding.derive", "s"),
    "seeding.derive_calls": ("calls", "seeding.derive", "count"),
}

# Wrapped entry points each metric depends on; if one has disappeared the
# metric is reported missing rather than as a misleading zero.
METRIC_NEEDS = {
    "model.restrict_s": ("dimension.restrict",),
    "model.restrict_calls": ("dimension.restrict",),
    "dimension.shattered_s": ("dimension.restrict",),
    "dimension.lookup_s": ("SoaOrientationLearner.side_dimensions",),
    "dimension.lookup_calls": ("SoaOrientationLearner.side_dimensions",),
    "learners.init_s": _LEARNER_TARGETS,
    "learners.init_calls": _LEARNER_TARGETS,
    "learners.predict_s": _LEARNER_TARGETS + ("SoaOrientationLearner.side_dimensions",),
    "learners.predict_calls": _LEARNER_TARGETS,
    "learners.update_s": _LEARNER_TARGETS,
    "learners.update_calls": _LEARNER_TARGETS,
    "learners.predicts_per_round": ("RobustReductionLearner.predict", "LazyRobustLearner.predict"),
    "runner.self_s": _LEARNER_TARGETS,
    "agnostic.estimate_self_s": _REPLAY_TARGETS + _LEARNER_TARGETS,
    "agnostic.build_s": ("agnostic.build_subset_experts",),
    "agnostic.comparator_s": ("agnostic.comparator_loss",),
    "agnostic.probe_self_s": _REPLAY_TARGETS + _LEARNER_TARGETS,
    "forecaster.trajectory_s": ("agnostic.weight_trajectory", "uncertain.weight_trajectory"),
    "uncertain.estimate_self_s": _REPLAY_TARGETS + _LEARNER_TARGETS,
    "seeding.derive_s": ("agnostic.derive_rng", "uncertain.derive_rng"),
    "seeding.derive_calls": ("agnostic.derive_rng", "uncertain.derive_rng"),
}


class _Span:
    __slots__ = ("tracer", "name")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.tracer.stack.append([self.name, time.perf_counter(), 0.0])

    def __exit__(self, *exc):
        self.tracer.close()
        return False


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [name, start, child seconds]
        self.stats = {}  # name -> [calls into the layer, self seconds]
        self.edges = {}  # (parent, child) -> nested span count
        self.records = []  # top-level spans: (item, name, start, end)
        self.counts = {}
        self.item = None
        self.missing = {}  # target id -> reason
        self._saved = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def close(self, weight: int = 1, outer: str | None = None) -> None:
        end = time.perf_counter()
        stack = self.stack
        name, start, child = stack.pop()
        dur = end - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0]
        st[0] += weight
        st[1] += dur - child
        if outer is not None:
            self.counts[outer] = self.counts.get(outer, 0) + 1
        if stack:
            parent = stack[-1]
            parent[2] += dur
            key = (parent[0], name)
            self.edges[key] = self.edges.get(key, 0) + 1
        else:
            self.records.append((self.item, name, start, end))

    def _wrap(self, fn, name, weight=1, every=None, outer=None):
        stack, close, counts, clock = self.stack, self.close, self.counts, time.perf_counter
        folded = name.startswith(FOLDED_LAYER)

        def traced(*args, **kwargs):
            if every is not None:
                counts[every] = counts.get(every, 0) + 1
            if folded and stack and stack[-1][0].startswith(FOLDED_LAYER):
                # a learner calling a learner: part of the open span
                return fn(*args, **kwargs)
            stack.append([name, clock(), 0.0])
            try:
                return fn(*args, **kwargs)
            finally:
                close(weight, outer)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every reachable entry point in PATCHES; note the others."""
        for target, module, cls, attr, name, extra in PATCHES:
            owner = importlib.import_module(f"robust_online.{module}")
            if cls is not None:
                owner = getattr(owner, cls, None)
            if owner is None or attr not in vars(owner):
                where = ".".join(p for p in ("robust_online", module, cls, attr) if p)
                self.missing[target] = f"entry point {where} not found"
                continue
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, **extra))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def layer_metrics(self) -> tuple[dict, dict]:
        """(metrics, missing): every LAYER_METRICS entry lands in one of them."""
        metrics, missing = {}, {}
        for metric, (kind, source, unit) in LAYER_METRICS.items():
            gone = [t for t in METRIC_NEEDS.get(metric, ()) if t in self.missing]
            if gone:
                missing[metric] = self.missing[gone[0]]
                continue
            if kind == "self":
                value = self.stats.get(source, [0, 0.0])[1]
            elif kind == "calls":
                value = self.stats.get(source, [0, 0.0])[0]
            elif kind == "count":
                value = self.counts.get(source, 0)
            else:
                # 0.0 when the workload shows no robust rounds at all
                num, den = (self.counts.get(s, 0) for s in source)
                value = num / den if den else 0.0
            metrics[metric] = {"value": value, "unit": unit}
        return metrics, missing

    def attributed_s(self, busy) -> float:
        """Time inside top-level spans, measured by busy(start, end)."""
        return sum(busy(start, end) for _, _, start, end in self.records)

    def dump(self) -> dict:
        return {
            "stats": {k: {"calls": v[0], "self_s": v[1]} for k, v in sorted(self.stats.items())},
            "edges": [
                {"parent": p, "child": c, "spans": n} for (p, c), n in sorted(self.edges.items())
            ],
            "counts": dict(sorted(self.counts.items())),
            "missing": self.missing,
            "spans": [
                {"item": i, "name": n, "start": s, "end": e} for i, n, s, e in self.records
            ],
        }
