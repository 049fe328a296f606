"""Two-period time-of-use tariff design anticipating storage investment."""

__version__ = "0.1.0"

from .benchmark import (
    RatioReport,
    SocialPlan,
    SolverSettings,
    StructureReport,
    compute_ratios,
    so_zero_cost,
    solve_so,
    validate_structure_pricing,
    validate_structure_so,
)
from .config import ExperimentConfig
from .costs import (
    AnnuityParams,
    SocialCostBreakdown,
    SupplyCostParams,
    approximation_gap,
    daily_cost_factor,
    no_storage_cost,
    social_cost,
    supply_cost_period,
)
from .demand import (
    HourlyLoadTable,
    PeriodStructure,
    ScenarioSet,
    adjust_variance,
    aggregate_by_type,
    generate_synthetic,
    ingest_hourly_loads,
    reduce_scenarios,
    synthetic_grouping,
)
from .errors import (
    ConvergenceError,
    InfeasibleResponseError,
    InputError,
    OrderingViolationError,
)
from .pricing import (
    PricingResult,
    TouPrice,
    evaluate_lambda,
    optimize_price_difference,
    optimize_prices_extended,
    social_cost_curve,
    user_specs_from_grouping,
)
from .response import (
    EquivalentTransform,
    ResponseProfile,
    StorageSpec,
    capacity_curve,
    equivalent_transform,
    optimal_capacity_discrete,
    respond,
    threshold_set_extended,
)

