"""Scheduling multiclass queues on predicted classes, with the tools to
measure what the classifier's mistakes cost: a preemptive-resume simulator,
index policies, heavy-traffic cost floors, a confusion-matrix model-selection
criterion, and a triage-system designer."""

__version__ = "0.1.0"

from .errors import (
    BracketFailureError,
    ConfigError,
    EmptyClassError,
    EmptyGridError,
    EmptyPassError,
    EventOverflowError,
    IngestError,
    NonFiniteMomentError,
    NonQuadraticError,
    PqschedError,
    ScheduleNonPositiveError,
    ZeroColumnError,
)
from .model import (
    ConfusionMatrix,
    CostFn,
    Dist,
    MixtureCost,
    PredictedClassParams,
    SystemConfig,
    ValidationReport,
    config_from_json,
    config_to_json,
    derive_predicted_params,
    load_config,
    mixture_cost,
    save_config,
    validate_config,
)
from .policies import (
    POLICY_KINDS,
    PolicyRef,
)
from .engine import (
    Curves,
    PathResult,
    RateSchedule,
    export_curves_csv,
    export_jobs_csv,
    run_path,
    run_paths,
)
from .cost import (
    COMPLETED_ONLY,
    TRUNCATE_AT_HORIZON,
    CostCurve,
    ReplicationSummary,
    compare_policies,
    export_summary_csv,
    paired_gap,
    path_cost,
    replicate,
    resolve_n_jobs,
    terminal_cost,
)
from .httheory import (
    Allocation,
    JEstimate,
    Moments,
    QuadraticCostCoefficients,
    RankedModel,
    WorkloadPathSet,
    bm_workload_paths,
    jnaive,
    jstar,
    kkt_solve,
    quadratic_coefficients,
    rank_models,
    relative_regret,
    two_class_xstar,
    workload_variance_rate,
)
from .triage import (
    McParams,
    PassingCurves,
    ReviewerParams,
    TriageConfig,
    TriageDecision,
    estimate_curves,
    evaluate_grid,
    filtering_cost_rate,
    load_triage_config,
    misclass_cost_rate,
    optimize,
    reviewer_params,
    reviewer_queue_cost,
    reviewer_variance_rate,
    staffing,
    total_cost,
)
from .ingest import (
    ValidationTable,
    estimate_confusion,
    estimate_rates,
    read_validation_csv,
    scores_by_class,
)
