"""Marginal costs of generation in a two-technology, two-period expansion model.

Long-run prices come out of the expansion LP's flow-balance duals, matched
against a closed-form 41-group classification; short-run prices come out of
the fixed-investment LP after resolving the degeneracy that makes its duals
non-unique.  A verification layer cross-checks every path.
"""

from .lp import (
    DegeneracyReport,
    IterationLimitError,
    LinearProgram,
    LpError,
    LpInputError,
    LpSolution,
    detect_degeneracy,
    dual_value_range,
    solve_lp,
)
from .model import (
    DualValues,
    GeneratorTech,
    LrmcSolve,
    ModelError,
    PrimalDecision,
    SystemParams,
    build_lrmc_dual,
    build_lrmc_primal,
    build_srmc_dual,
    build_srmc_primal,
    extract_decision,
    extract_duals,
    solve_lrmc,
)
from .groups import (
    AnalyticResult,
    ClassificationError,
    InstanceGroup,
    analytic_solution,
    classify,
    representative_params,
    table_csv,
)
from .pricing import (
    LrmcProfile,
    RecoveryReport,
    SrmcPricing,
    ZERO_RENT_GROUPS,
    cost_recovery,
    group_orientation,
    lrmc_profile_for_group,
    srmc_profile,
)
from .srmc import SrmcError, SrmcResult, compute_srmc, default_epsilon, predict_srmc_from_lrmc
from .verify import (
    CrossCheckReport,
    SlacknessReport,
    check_complementary_slackness,
    cross_check,
)
from .sampling import random_params
from .tolerances import DEFAULT, Tolerances

__version__ = "0.1.0"
