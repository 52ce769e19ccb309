"""smartcharge: learn two-phase EV charging policies from session history
and evaluate their peak-shaving impact against raw and ideal baselines."""

from .aggregation import (
    DailyProfile,
    StrategyMetrics,
    accumulate,
    deficit_stats,
    peak_reduction,
    speed_histogram_counts,
)
from .charging import (
    ChargingPolicy,
    HistoryArrays,
    PowerProfile,
    SessionOutcome,
    adaptive_profile,
    evaluate_policy_arrays,
    oracle_profile,
    raw_profile,
    simulate_session,
)
from .dataset import (
    ChargePoint,
    CleaningReport,
    ParseError,
    Sessions,
    clean_sessions,
    derive_p_max,
    parse_sessions,
    parse_sessions_path,
)
from .harness import (
    ExperimentConfig,
    HarnessError,
    run,
    run_offline,
    run_online,
    run_predict,
)
from .optimizer import (
    LearnedPolicy,
    RewardParams,
    SearchConfig,
    learn_policies,
    learn_policy,
    per_cp_seed,
    reward,
)
from .predictor import (
    PredictionMetrics,
    RegressionModel,
    cross_validate,
    extract_features,
    fit_ols,
)

__version__ = "0.1.0"
