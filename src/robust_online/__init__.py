"""Online classification against perturbation adversaries.

The learner sees adversarially perturbed inputs and is judged by a robust
loss: a prediction counts as wrong if any admissible perturbation of the
clean instance would be labeled differently.  The package computes the
combinatorial dimension governing this game, runs the optimal learners and
their lower-bound adversaries, verifies both against an exact minimax
solver at desk scale, and extends the realizable machinery to agnostic
sequences and to uncertainty about the perturbation map itself.
"""

from ._version import __version__
from .agnostic import (
    build_subset_experts,
    comparator_loss,
    decomposition_gap,
    expected_regret,
    mc_regret,
    random_label_regret_sample,
    subset_expert_count,
)
from .adversaries import (
    OrientationTreeAdversary,
    RobustTreeAdversary,
    ScriptedOrientationAdversary,
    ScriptedRobustAdversary,
    corrupt_labels,
    realizable_orientation_rounds,
    realizable_robust_rounds,
)
from .dimension import (
    EMPTY_DIM,
    AdversarialTree,
    AdversarialTreeNode,
    adversarial_dimension,
    classic_littlestone_dimension,
    dimension_of,
    is_shattered,
    witness_tree,
)
from .errors import (
    DomainError,
    LimitExceeded,
    ProtocolViolation,
    ScenarioFormatError,
    SearchInvariantError,
    TreeStructureError,
)
from .forecaster import (
    horizon_rate,
    horizon_regret_bound,
    loss_budget_rate,
    small_loss_bound,
)
from .learners import (
    BASELINES,
    LEARNER_NAMES,
    OrientationQuery,
    RobustReductionLearner,
    SoaOrientationLearner,
    lazy_wrap,
    make_learner,
    worst_case_mistakes,
)
from .model import (
    Hypothesis,
    HypothesisClass,
    PerturbationMap,
    VersionSpace,
    compatible_pairs,
    full_class,
    identity_map,
    restrict,
    total_map,
)
from .oracle import optimal_mistake_bound
from .runner import (
    GameTranscript,
    RunSummary,
    run_game,
    run_orientation_game,
    run_robust_game,
    run_scenario,
)
from .scenario import (
    CorpusParams,
    GameConfig,
    Scenario,
    generate_corpus,
    generate_family_scenarios,
    parse_scenario,
    serialize_scenario,
    try_parse_scenario,
)
from .seeding import derive_rng, derive_seed_sequence
from .uncertain import (
    PerturbationFamily,
    family_expected_mistakes,
    family_halving_run,
    family_loss_budget,
    halving_bound,
    mc_family_mistakes,
)

__all__ = [name for name in dir() if not name.startswith("_")]
