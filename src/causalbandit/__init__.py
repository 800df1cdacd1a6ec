"""Best-arm identification on binary causal DAGs under hard interventions."""

from .bif import (
    BifNetwork,
    BifVariable,
    format_bif,
    load_bundled,
    parse_bif,
    to_causal_dag,
)
from .allocation import (
    MinimizeResult,
    RatioObjective,
    SolverConfig,
    allocation_complexity,
    build_exact_objective,
    evaluate,
    minimize,
    vote_share,
)
from .errors import (
    BifParseError,
    BudgetError,
    CapacityError,
    IllPosedObjectiveError,
    InternalConsistencyError,
    ParameterError,
)
from .inference import (
    SimulatedEnvironment,
    brute_force_parent_probability,
    brute_force_target_probability,
    parent_probabilities,
    sample_batch,
    target_probabilities,
    target_probability,
)
from .model import (
    FREE,
    CausalDag,
    ConditionalTable,
    Instance,
    Intervention,
    InterventionSet,
    ParentRealization,
    ValidationReport,
    enumerate_budget_interventions,
    enumerate_root_interventions,
    make_binary_tree_dag,
    make_binary_tree_instance,
    random_conditional_table,
    soft_to_hard_reduction,
    uncertain_rows,
    validate,
)
from .phase1 import (
    Phase1Result,
    TruncationSets,
    fold_counts,
    rate_estimates,
    run_phase1,
    truncation_threshold,
)
from .phase2 import (
    Phase2Result,
    build_allocation_objective,
    run_phase2,
)
from .strategies import (
    StrategyResult,
    default_trunc_scale,
    run_causal_bandit,
    run_successive_rejects,
    run_uniform_baseline,
    simple_regret,
)
from .sweep import (
    STRATEGIES,
    CellFailure,
    CellWarning,
    ExperimentConfig,
    RegretReport,
    RegretRow,
    build_arms,
    config_from_mapping,
    load_structure,
    mix_seed,
    parse_config_text,
    run_sweep,
)
