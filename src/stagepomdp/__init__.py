"""POMDPs with stage duration: model algebra, strategy mimicking, evaluation.

The package models finite POMDPs whose per-stage transition kernel is
scaled by a duration parameter h (with probability 1-h the state freezes),
constructs the base-model strategy that mimics any duration-h strategy by
conditioning on epoch-boundary observations, and verifies the resulting
payoff identities numerically.
"""

from .errors import (
    BadOrder,
    BudgetExceeded,
    DuplicateEntry,
    GapBoundViolated,
    InitNotStochastic,
    MissingSignal,
    ModelValidationError,
    NegativeProbability,
    NoAcceptedSamples,
    NotConverged,
    NotFullyObserved,
    ParseError,
    PomdpFormatError,
    RowNotStochastic,
    SingularSystem,
    StagePomdpError,
    TruncationDominates,
    UnknownName,
)
from .model import (
    PROB_TOL,
    PomdpModel,
    is_fully_observed,
    make_model,
    rescale_stage_duration,
    stage_duration_transform,
    validate_mixed_action,
    validate_model,
    validate_stage_duration,
)
from .strategies import (
    FiniteStateController,
    History,
    SequenceStrategy,
    Strategy,
    StrategyCursor,
    TableStrategy,
    controller_for,
    exact_history_distribution,
    sequence_as_controller,
    uniform_action,
)
from .epochs import (
    EpochSample,
    ExtendedTrajectory,
    PlayBatch,
    epoch_memory_operator,
    sample_epochs,
    simulate_batch,
    simulate_epochs_gh,
    simulate_gh,
    worker_rng,
)
from .mimic import (
    FilteredHistory,
    FilterMachine,
    MimicAction,
    MimicActionEstimate,
    MimicStrategy,
    build_filter_machine,
    build_mimic_strategy,
    default_truncation,
    filtered_joint,
    mimic_action_exact,
    mimic_action_mc,
)
from .evaluate import (
    DEFAULT_LAMBDA_GRID,
    PayoffEstimate,
    asymptotic_value_estimate,
    cesaro_average,
    discounted_payoff,
    discounted_value_estimate,
    longrun_average_exact_fsc,
    longrun_average_mc,
)
from .verify import (
    CheckReport,
    check_cesaro_alignment,
    check_corollary_rescale,
    check_epoch_sum_lemma,
    check_fully_observed_identity,
    check_liminf_subsequence,
    check_marginal_lemma,
    check_monotonicity,
    check_theorem_main,
    figure1_model,
    fully_observed_model,
    liminf_trailing,
    random_pomdp_model,
    render_report,
    run_suite,
)
from .textio import (
    parse_controller,
    parse_pomdp,
    serialize_controller,
    serialize_pomdp,
)
from .cli import run_cli

__version__ = "0.1.0"
