"""The benchmark's tracer wraps package attributes by name.

`bench/tracing.py` is loaded read-only from its file.  A name it lists in
PATCHES that has left its owner's `__dict__` would turn its metrics into
`missing_metrics` of a traced run; this catches the rename at once.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_in_its_owners_dict():
    tracing = load_tracing()
    targets = set()
    for target, module, cls, attr, _, _ in tracing.PATCHES:
        owner = importlib.import_module(f"robust_online.{module}")
        if cls is not None:
            assert cls in vars(owner), target
            owner = vars(owner)[cls]
        assert attr in vars(owner), target
        targets.add(target)
    for metric, needs in tracing.METRIC_NEEDS.items():
        assert set(needs) <= targets, metric
