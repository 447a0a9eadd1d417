"""Marginal costs of generation in a two-technology, two-period expansion model.

Long-run prices come out of the expansion LP's flow-balance duals, matched
against a closed-form 41-group classification; short-run prices come out of
the fixed-investment LP after resolving the degeneracy that makes its duals
non-unique.  A verification layer cross-checks every path.

The package exports what the demos and the README use; everything else is
imported from its module (``genmargin.verify.cross_check``, ...).
"""

from .lp import detect_degeneracy, dual_value_range, solve_lp
from .model import SystemParams, build_lrmc_primal, build_srmc_primal, solve_lrmc
from .groups import analytic_solution, classify, used_options
from .pricing import (
    cost_recovery,
    group_orientation,
    investment_allocation,
    lrmc_profile_for_group,
    srmc_profile,
)
from .srmc import compute_srmc, default_epsilon

__version__ = "0.1.0"
