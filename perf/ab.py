"""Paired in-process A/B of the package against an earlier commit.

    python perf/ab.py --parent REV --workload replay [--seed 1 --seconds 10 --passes 3]

Run from anywhere inside the repository.  The parent's src/ is unpacked
from git (`git archive REV src`, no network) into a temporary directory,
and both it and the working tree's src/robust_online are imported in this
one process under distinct module names.  The working tree's
bench/workloads.py is executed once per side with `robust_online` bound to
that side's package, so each side generates and prepares its own inputs
from the seed, exactly as bench/run.py would.

Each pass runs every item on both sides, in chunks of CHUNK items; the
side that runs a chunk first alternates from chunk to chunk and from pass
to pass.  The garbage collector is off while a chunk runs and a full
collection runs between chunks, outside the timed spans.  Item times are
raw time.perf_counter spans, with no host-clock rescale: both sides share
the host, so their ratio is what the code changed.

Each pass also times each side's input generation and preparation
(wl.generate and wl.prepare from the seed, as bench/run.py's setup_s
counts them), once per side, the side that goes first alternating from
pass to pass, each after a full collection and with the collector off.
The record gives their seconds per side and change/parent ratios; like
every ratio here they are printed, not gated.

Each pass also gives every kind's item count and a 95% bootstrap interval
of its ratio, and of the total's.  The unit resampled is the chunk, the
unit whose side order alternates, so the interval covers the drift from
chunk to chunk as well as the spread from item to item: the pass's chunks
are resampled with replacement, each keeping its items' pairs of times,
RESAMPLES times from a fixed seed, so the intervals of given times are
deterministic.  One resample serves every kind; a resample that holds
none of a kind's items is left out of that kind's interval.  A kind of a
handful of items gets a wide interval, and its ratio says little.

A chunk interval covers one pass only, and the drift from pass to pass
can be wider.  So the record's over_passes gives, per kind and for the
total, the median of the pass ratios and a 95% percentile-bootstrap
interval of that median: the passes themselves are resampled with
replacement, RESAMPLES times from BOOTSTRAP_SEED.  Few passes give a
coarse interval (at 2 passes it runs from the lower pass ratio to the
higher), so it says more the more passes there are; it is printed, not
gated, like every ratio here.

After the timed passes, each side builds its inputs afresh and runs
every item once more, untimed, under tracemalloc.  The bytes still
allocated at the end are summed by the package module whose code made
them (the innermost frame in that side's package directory; the two
sides load from different paths, so their allocations separate by file
name).  This is where a memory change shows, layer by layer.

The one line of standard output is a JSON object: per-kind and total
seconds per side and pass, their change/parent ratios with their item
counts and intervals, each kind's median ratio over the passes with its
interval, the retained bytes per module of each side, the
output digest of each side and the machine.  The exit status is 1 when
any item's result (or the workload's batch check) differs between the
two sides, 2 on a usage or git error, and 0 otherwise.
"""

import argparse
import gc
import hashlib
import importlib.util
import io
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
import time
import tracemalloc
import types
from contextlib import nullcontext
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CHUNK = 100
SIDES = ("parent", "change")
NULL_SPAN = nullcontext()
RESAMPLES = 2000
BOOTSTRAP_SEED = 20261020
# frames kept per traced allocation: enough to reach the innermost package
# frame under NumPy's, the standard library's and dataclass-generated
# Python-level calls.  On a 2-core host (Python 3.11.7), the A/A memory pass
# at seed 1 and --seconds 1 attributes the same bytes per module at 3
# frames as at 8 on every workload (play 7,295,185 B, solve 300,139 B,
# replay 287,135 B), and the A/A run of all three takes 48 s, not 102 s.
# At 2 frames replay loses its forecaster bytes; at 1, play loses about
# 80 KB of model, allocated under dataclass-generated __init__ frames.
TRACE_FRAMES = 3


def _git(*args) -> bytes:
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"git {' '.join(args)}: {done.stderr.decode(errors='replace').strip()}")
    return done.stdout


def unpack_src(rev: str, into: Path) -> str:
    """Write rev's src/ under `into`; returns rev's full commit id."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    # the "data" filter where this Python has it (3.10.12, 3.11.4 and later)
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(_git("archive", commit, "src"))) as tar:
        tar.extractall(into, **safe)
    return commit


def import_package(name: str, package_dir: Path) -> types.ModuleType:
    """Import the package in package_dir as `name`; its relative imports
    resolve inside it, so two copies never share a module."""
    spec = importlib.util.spec_from_file_location(
        name, package_dir / "__init__.py", submodule_search_locations=[str(package_dir)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_workloads(side: str, package: types.ModuleType) -> types.ModuleType:
    """bench/workloads.py executed with `import robust_online` bound to package."""
    path = ROOT / "bench" / "workloads.py"
    module = types.ModuleType(f"_ab_workloads_{side}")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module  # dataclasses look their module up
    saved = sys.modules.get("robust_online")
    sys.modules["robust_online"] = package
    try:
        exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    finally:
        if saved is None:
            del sys.modules["robust_online"]
        else:
            sys.modules["robust_online"] = saved
    return module


class Side:
    """One package copy with its own workload module, inputs and context.

    It keeps its generated inputs as well as the prepared ones, so the
    memory pass counts what the generators made.
    """

    def __init__(self, name, package, workload, seed, seconds):
        self.name, self.seed = name, seed
        self.workloads = load_workloads(name, package)
        self.wl = self.workloads.WORKLOADS[workload]
        self.size = self.wl.size_for(seconds)
        self.generated = self.wl.generate(seed, self.size)
        self.items, self.prepared = self.wl.prepare(seed, self.generated)
        self.ctx = self.workloads.Context(seed, lambda _name: NULL_SPAN, {})

    def time_setup(self):
        """Seconds of one wl.generate and one wl.prepare from the seed; the
        inputs they make are dropped."""
        generated, generate_s = timed(self.wl.generate, self.seed, self.size)
        _, prepare_s = timed(self.wl.prepare, self.seed, generated)
        return {"generate": generate_s, "prepare": prepare_s}

    def run(self, indices, results, seconds):
        """Run the items at `indices`, filling their results and seconds."""
        items, prepared, run_item, ctx = self.items, self.prepared, self.wl.run_item, self.ctx
        for i in indices:
            item = items[i]
            start = time.perf_counter()
            try:
                result, ok = run_item(item, ctx, prepared)
            except Exception as exc:  # a raising item is a result too
                result, ok = ("error", item.kind, type(exc).__name__), False
            seconds[i] = time.perf_counter() - start
            results[i] = (result, ok)


def timed(fn, *args):
    """(fn(*args), its seconds), timed after a full collection with the
    collector off."""
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        out = fn(*args)
        return out, time.perf_counter() - start
    finally:
        gc.enable()


def _digest(results, batch) -> str:
    digest = hashlib.sha256()
    for result, _ in results:
        digest.update(repr(result).encode())
        digest.update(b"\n")
    digest.update(repr(batch).encode())
    return digest.hexdigest()


def bootstrap_intervals(parent, change, columns):
    """The 95% percentile-bootstrap interval of change.sum() / parent.sum()
    over the items of each column (a boolean mask), with the pass's chunks
    resampled with replacement, from the fixed BOOTSTRAP_SEED."""
    chunk_of = np.arange(len(parent)) // CHUNK
    n = int(chunk_of[-1]) + 1
    # per chunk and column: each side's seconds, shape (chunks, columns)
    sums = [
        np.stack([np.bincount(chunk_of, side * mask, n) for mask in columns.values()], axis=1)
        for side in (parent, change)
    ]
    # each row: how many times each chunk was drawn in one resample
    draws = np.random.default_rng(BOOTSTRAP_SEED).multinomial(n, np.full(n, 1 / n), RESAMPLES)
    with np.errstate(invalid="ignore"):  # 0/0 where a resample holds none of a column
        ratios = (draws @ sums[1]) / (draws @ sums[0])
    lo, hi = np.nanpercentile(ratios, [2.5, 97.5], axis=0)
    return {k: [float(a), float(b)] for k, a, b in zip(columns, lo, hi)}


def pass_record(kinds, seconds):
    """Per-kind and total seconds per side, the ratios, the item counts
    and the bootstrap intervals of one pass."""
    parent, change = (np.array(seconds[name]) for name in SIDES)
    of_kind = np.array(kinds)
    columns = {kind: of_kind == kind for kind in sorted(set(kinds))}
    columns["total"] = np.ones(len(kinds), dtype=bool)
    parent_s = {k: float(parent[m].sum()) for k, m in columns.items()}
    change_s = {k: float(change[m].sum()) for k, m in columns.items()}
    return {
        "parent_s": parent_s,
        "change_s": change_s,
        "ratio": {k: change_s[k] / parent_s[k] if parent_s[k] > 0 else None for k in columns},
        "items": {k: int(m.sum()) for k, m in columns.items()},
        "interval": bootstrap_intervals(parent, change, columns),
    }


def over_passes(records):
    """Per kind: the median of the pass ratios, the passes counted and the
    95% percentile-bootstrap interval of the median over resampled passes,
    from the fixed BOOTSTRAP_SEED.  A pass with no ratio for a kind (no
    parent time) is left out of that kind."""
    out = {}
    for kind in records[0]["ratio"]:
        ratios = np.array([r["ratio"][kind] for r in records if r["ratio"][kind] is not None])
        n = len(ratios)
        if not n:
            continue
        draws = np.random.default_rng(BOOTSTRAP_SEED).integers(0, n, (RESAMPLES, n))
        lo, hi = np.percentile(np.median(ratios[draws], axis=1), [2.5, 97.5])
        out[kind] = {"median": float(np.median(ratios)), "passes": n, "interval": [float(lo), float(hi)]}
    return out


def run_passes(sides, passes):
    """Time every item on both sides per pass; returns (passes, results of the last pass)."""
    n = len(sides[0].items)
    kinds = [item.kind for item in sides[1].items]
    chunks = [range(lo, min(lo + CHUNK, n)) for lo in range(0, n, CHUNK)]
    records, results = [], {}
    for p in range(passes):
        results = {side.name: [None] * n for side in sides}
        seconds = {side.name: [0.0] * n for side in sides}
        for c, chunk in enumerate(chunks):
            for side in sides if (c + p) % 2 == 0 else sides[::-1]:
                gc.collect()
                gc.disable()
                side.run(chunk, results[side.name], seconds[side.name])
                gc.enable()
        record = pass_record(kinds, seconds)
        setup = {side.name: side.time_setup() for side in (sides if p % 2 else sides[::-1])}
        record["setup"] = {
            "parent_s": setup["parent"],
            "change_s": setup["change"],
            "ratio": {k: setup["change"][k] / setup["parent"][k] for k in setup["parent"]},
        }
        records.append(record)
    return records, results


def retained_by_module(name, package, args):
    """Bytes a fresh side still holds after its setup and one untimed pass,
    by the module of its package whose code allocated them.

    A full collection first empties CPython's free lists, so the objects
    the side keeps are allocated, and traced, anew.  The item results are
    dropped before the snapshot: what is left is the inputs and what the
    package keeps.
    """
    root = str(Path(package.__file__).parent) + os.sep
    gc.collect()
    tracemalloc.start(TRACE_FRAMES)
    try:
        side = Side(name, package, args.workload, args.seed, args.seconds)
        n = len(side.items)
        side.run(range(n), [None] * n, [0.0] * n)
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held = {}
    for trace in snapshot.traces:
        for frame in reversed(trace.traceback):  # innermost first
            if frame.filename.startswith(root):
                module = Path(frame.filename).stem
                held[module] = held.get(module, 0) + trace.size
                break
    out = dict(sorted(held.items()))
    out["total"] = sum(held.values())
    return out


def _machine():
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True, choices=("solve", "play", "replay"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--passes", type=int, default=3)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.passes < 1:
        parser.error("--seconds and --passes must be at least 1")
    with tempfile.TemporaryDirectory(prefix="ab-parent-") as tmp:
        try:
            commit = unpack_src(args.parent, Path(tmp))
        except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
            print(f"cannot unpack {args.parent}'s src/: {exc}", file=sys.stderr)
            return 2
        packages = {
            "parent": import_package("_ab_parent_robust_online", Path(tmp) / "src" / "robust_online"),
            "change": import_package("_ab_change_robust_online", ROOT / "src" / "robust_online"),
        }
        sides = [Side(name, packages[name], args.workload, args.seed, args.seconds) for name in SIDES]
        records, results = run_passes(sides, args.passes)
        batches = {
            side.name: side.wl.finish([r for r, _ in results[side.name]]) if side.wl.finish else None
            for side in sides
        }
        retained = {name: retained_by_module(name, packages[name], args) for name in SIDES}
    parent, change = sides
    same_items = [(i.kind, i.spec) for i in parent.items] == [(i.kind, i.spec) for i in change.items]
    differing = [i for i, (a, b) in enumerate(zip(results["parent"], results["change"])) if a != b]
    equal = same_items and not differing and batches["parent"] == batches["change"]
    kinds = {}
    for item in change.items:
        kinds[item.kind] = kinds.get(item.kind, 0) + 1
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "parent": args.parent,
        "parent_commit": commit,
        "items": len(change.items),
        "items_by_kind": dict(sorted(kinds.items())),
        "outputs_equal": equal,
        "differing_items": len(differing),
        "output_digest": {name: _digest(results[name], batches[name]) for name in SIDES},
        "passes": records,
        "over_passes": over_passes(records),
        "retained_bytes": retained,
        "machine": _machine(),
    }, sort_keys=True))
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())
