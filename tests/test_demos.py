"""The five demos' stdout, pinned byte for byte.

Each demo runs as its own process.  A change that moves a demo's output
on purpose updates its literal here and says so in CHANGES.md.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

EXPECTED = {
    "01_dimension_basics.py": """\
full class on 3 points, identity map: dimension 3, classic 3

two constant hypotheses, total map
  hypotheses: [(0, 0, 0), (1, 1, 1)]
  U: [[0, 1, 2], [0, 1, 2], [0, 1, 2]]
  dimension: 1  (witness tree depth 1)

five hypotheses, mixed overlap
  hypotheses: [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 1, 1)]
  U: [[0, 1], [1], [1, 2]]
  dimension: 1  (witness tree depth 1)

same hypotheses, identity map
  hypotheses: [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 1, 1)]
  U: [[0], [1], [2]]
  dimension: 2  (witness tree depth 2)

same hypotheses, total map
  hypotheses: [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 1, 1)]
  U: [[0, 1, 2], [0, 1, 2], [0, 1, 2]]
  dimension: 1  (witness tree depth 1)

for this class: identity 2, mixed 1, total 1
""",
    "02_realizable_games.py": """\
dimension under the mixed-overlap map: 1

optimal learner on 30 random realizable sequences:
  worst mistake count: 1  (bound 1)

everyone against the tree adversary (mixed overlap, dimension 1):
  optimal     forced mistakes: 1  (tight)
  constant-0  forced mistakes: 1  (tight)
  constant-1  forced mistakes: 1  (tight)
  random      forced mistakes: 1  (tight)
  majority    forced mistakes: 1  (tight)

everyone against the tree adversary (identity, dimension 2):
  optimal     forced mistakes: 2  (tight)
  constant-0  forced mistakes: 2  (tight)
  constant-1  forced mistakes: 2  (tight)
  random      forced mistakes: 2  (tight)
  majority    forced mistakes: 2  (tight)

""",
    "03_minimax_oracle.py": """\
scenario       dim  robust  orientation
scenario_0000    3       3            3
scenario_0001    1       1            1
scenario_0002    1       1            1
scenario_0003    1       1            1
scenario_0004    1       1            1
scenario_0005    0       0            0
scenario_0006    2       2            2
scenario_0007    1       1            1
scenario_0008    2       2            2
scenario_0009    1       1            1
scenario_0010    0       0            0
scenario_0011    1       1            1
scenario_0012    3       3            3
scenario_0013    1       1            1
scenario_0014    1       1            1
scenario_0015    1       1            1

disagreements: 0 of 16
horizon-capped values for scenario_0000: [0, 1, 2, 3, 3] (cap 3)
""",
    "04_agnostic_regret.py": """\
dimension 1, horizon 12, corrupted rounds 2
comparator: hypothesis 0 with loss 2
decomposition expert: 2 mistakes <= 1 + 2 (gap 1)

13 subset experts
expected regret 0.2736  vs bound 4.9230
""",
    "05_unknown_perturbation_family.py": """\
family of 4, per-member loss budget 2
aggregated learner: expected mistakes 0.0000  vs bound 5.7411
phased halving: 0 mistakes, phases [0], bound 8

two-member corner case: phases [2, 1], completed-phase cap 2, total 3 <= 5
the first phase costs 2: the halving mistake plus the emptying one
""",
}


@pytest.mark.parametrize("demo", sorted(EXPECTED))
def test_demo_output_is_pinned(demo):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    out = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == EXPECTED[demo]
