"""Time each criterion of `robust-online check --scale full --seed 0`.

Informational only: the traced benchmark run starts this in a fresh
interpreter and reports the times as acceptance.* metrics.  A failing
criterion (criterion 9 is a known, documented red) is recorded as it
stands and does not fail the benchmark.  Prints one JSON line.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from robust_online.acceptance import CRITERIA, SCALES  # noqa: E402


def main():
    seconds, lines = {}, []
    start = time.perf_counter()
    for n in sorted(CRITERIA):
        t = time.perf_counter()
        result = CRITERIA[n](SCALES["full"], 0)
        seconds[n] = time.perf_counter() - t
        lines.append(result.line())
    total = time.perf_counter() - start
    print(json.dumps({"seconds": seconds, "total_s": total, "lines": lines}))


if __name__ == "__main__":
    main()
