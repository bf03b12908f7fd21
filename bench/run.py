"""Benchmark driver for the robust_online package.

    python3 bench/run.py --workload solve --seed 1 --seconds 10 --trace 0

Run from the repository root; the package is imported from ./src.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The line before it is a JSON record
with the output digest, the work counts, the stated workload size and the
machine.  With --trace 0 the metrics are the end-to-end ones; --trace 1
first runs the same arguments untraced in a child process, then runs the
workload again with spans installed and reports the per-layer metrics,
the tracing overhead and the informational acceptance-suite timings, and
writes the spans to bench/out/.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from hostclock import HostClock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 3  # imports and input generations per run; setup_s takes their medians
CHILD_TIMEOUT_S = 170
NULL_SPAN = nullcontext()
WORKLOAD_NAMES = ("solve", "play", "replay")


def _null_span(_name):
    return NULL_SPAN


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _machine():
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
    }


def _p(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _import_seconds():
    """Import time of the package (and numpy) in a fresh interpreter."""
    code = (
        "import sys, time; start = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
        "import robust_online; print(time.perf_counter() - start)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(SRC)],
        capture_output=True,
        text=True,
        check=True,
        timeout=CHILD_TIMEOUT_S,
    )
    return float(done.stdout)


def setup(name, seed, size=None, seconds=None):
    """Import the package and build the workload's inputs from the seed.

    The import is timed SETUP_REPEATS more times in fresh interpreters and
    input generation runs SETUP_REPEATS times.  setup_s is the median
    import time plus the median generation time plus the one-off
    preparation (the reference solves play and replay read from), each
    rescaled to the reference host speed.
    """
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import robust_online  # noqa: F401  (the package and numpy)

    import_raw_s = time.perf_counter() - start
    import workloads

    wl = workloads.WORKLOADS[name]
    size = size or wl.size_for(seconds)
    clock = HostClock()
    imports, spans = [], []
    with clock.running():
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            own = _import_seconds()
            imports.append((own, t, time.perf_counter()))
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            generated = wl.generate(seed, size)
            spans.append((t, time.perf_counter()))
        t = time.perf_counter()
        items, prepared = wl.prepare(seed, generated)
        prepared_at = time.perf_counter()
    import_s = [own * clock.speed(a, b) for own, a, b in imports]
    gen_s = [clock.rescale(a, b) for a, b in spans]
    timing = {
        "import_s": import_s,
        "generate_s": gen_s,
        "prepare_s": clock.rescale(t, prepared_at),
        "setup_raw_s": import_raw_s + sum(b - a for a, b in spans) + prepared_at - t,
    }
    timing["setup_s"] = (
        statistics.median(import_s) + statistics.median(gen_s) + timing["prepare_s"]
    )
    return wl, size, items, prepared, timing, clock


def execute(wl, items, prepared, seed, tracer=None, clock=None):
    """Run every item once, in order, timing each; check and digest them.

    The host clock calibrates throughout; its calibrations are left out of
    every timed interval.
    """
    import workloads

    clock = clock or HostClock()
    ctx = workloads.Context(seed, tracer.span if tracer else _null_span, {})
    windows, results, failed = [], [], []
    first_error = None
    if tracer:
        tracer.install()
    with clock.running():
        start = time.perf_counter()
        for i, item in enumerate(items):
            if tracer:
                tracer.item = i
            t = time.perf_counter()
            try:
                result, ok = wl.run_item(item, ctx, prepared)
            except Exception as exc:  # an item that raises counts as failed
                result, ok = ("error", item.kind, type(exc).__name__), False
                if first_error is None:
                    first_error = traceback.format_exc()
            windows.append((t, time.perf_counter()))
            results.append(result)
            failed.append(not ok)
        stop = time.perf_counter()
    if tracer:
        tracer.uninstall()
    if first_error:
        print(first_error, file=sys.stderr)

    digest = hashlib.sha256()
    for result in results:
        digest.update(repr(result).encode())
        digest.update(b"\n")
    batch = None
    if wl.finish:
        batch, failing_kinds = wl.finish(results)
        digest.update(repr(batch).encode())
        failed = [f or item.kind in failing_kinds for f, item in zip(failed, items)]
    latencies = [clock.rescale(a, b) for a, b in windows]
    kinds, kind_s = {}, {}
    for item, lat in zip(items, latencies):
        kinds[item.kind] = kinds.get(item.kind, 0) + 1
        kind_s[item.kind] = kind_s.get(item.kind, 0.0) + lat
    return {
        "items_by_kind": kinds,
        "seconds_by_kind": kind_s,
        "attempted": len(items),
        "failed": sum(failed),
        "output_digest": digest.hexdigest(),
        "batch_check": batch,
        "counts": dict(sorted(ctx.counts.items())),
        "timed_s": clock.rescale(start, stop),
        "timed_raw_s": clock.busy(start, stop),
        "latencies": latencies,
        "host_speed": clock.summary(),
    }


def measure(name, seed, seconds, tracer=None):
    """Set up and run one workload; returns the run's record and clock."""
    wl, size, items, prepared, timing, clock = setup(name, seed, seconds=seconds)
    run = execute(wl, items, prepared, seed, tracer, clock)
    lat = sorted(run.pop("latencies"))
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "size": vars(size),
        **run,
        **timing,
        "metrics": {
            "items_per_s": {"value": len(items) / run["timed_s"], "unit": "1/s"},
            "item_p50_ms": {"value": 1e3 * _p(lat, 0.50), "unit": "ms"},
            "item_p99_ms": {"value": 1e3 * _p(lat, 0.99), "unit": "ms"},
            "setup_s": {"value": timing["setup_s"], "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        },
    }
    return record, clock


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def _run_json(cmd):
    """Run a child process to completion; its last stdout lines are JSON."""
    done = subprocess.run(
        cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, env=_child_env()
    )
    if done.returncode != 0:
        raise RuntimeError(f"{cmd} exited {done.returncode}: {done.stderr[-2000:]}")
    return [json.loads(line) for line in done.stdout.strip().splitlines()[-2:]]


def acceptance_timings():
    """Informational: per-criterion times of `check --scale full --seed 0`."""
    try:
        (timings,) = _run_json([sys.executable, str(BENCH / "acceptance_timing.py")])[-1:]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        return {}, {"acceptance": f"acceptance run failed: {exc}"}, None
    metrics = {
        f"acceptance.criterion_{n}_s": {"value": timings["seconds"][str(n)], "unit": "s"}
        for n in (3, 8, 11, 12)
    }
    metrics["acceptance.total_s"] = {"value": timings["total_s"], "unit": "s"}
    return metrics, {}, timings["lines"]


def traced(name, seed, seconds):
    from tracing import Tracer

    child_record, child_result = _run_json(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    )
    child_record = child_record["record"]
    tracer = Tracer()
    record, clock = measure(name, seed, seconds, tracer)
    # the wrappers must not change behaviour: same outputs, same work
    same = all(
        record[k] == child_record[k] for k in ("attempted", "failed", "output_digest", "counts")
    )
    games = tracer.stats.get("runner.game", [0])[0]
    same = same and games == record["counts"].get("runner.games", 0)
    for k, v in record["counts"].items():
        tracer.counts.setdefault(k, v)
    metrics, missing = tracer.layer_metrics()
    metrics["trace.overhead_frac"] = {
        "value": record["timed_s"] / child_record["timed_s"] - 1,
        "unit": "frac",
    }
    metrics["trace.unattributed_s"] = {
        "value": record["timed_raw_s"] - tracer.attributed_s(clock.busy),
        "unit": "s",
    }
    acc_metrics, acc_missing, acc_lines = acceptance_timings()
    metrics.update(acc_metrics)
    missing.update(acc_missing)
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{name}-seed{seed}.json"
    trace_file.write_text(json.dumps(tracer.dump()) + "\n")
    record.update(
        trace=1,
        traced_end_to_end=record.pop("metrics"),
        untraced_timed_s=child_record["timed_s"],
        matches_untraced=same,
        missing_metrics=missing,
        acceptance_lines=acc_lines,
        trace_file=str(trace_file.relative_to(ROOT)),
    )
    correct = same and child_result["correct"] and record["failed"] == 0
    return record, correct, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "robust_online" / "__init__.py").is_file():
        print(f"package sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.trace:
        record, correct, metrics = traced(args.workload, args.seed, args.seconds)
    else:
        record, _ = measure(args.workload, args.seed, args.seconds)
        record["trace"] = 0
        metrics = record.pop("metrics")
        correct = record["failed"] == 0
    record["failed_frac"] = record["failed"] / record["attempted"]
    record["machine"] = _machine()
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
