"""pplab: analysis of periodically forced delayed recursions.

The library classifies the global dynamics of x[n+1] = x[n] * f_n(x[n-1])
with period-k positive decreasing coefficient functions, computes explicit
permanence bounds, extracts the attracting period-k cycle, and verifies the
claimed behavior numerically.  See the ``pplab`` CLI for the scenario-driven
front end.
"""

from pplab.analysis import (
    Classification,
    GridSpec,
    HypothesisReport,
    PermanenceBounds,
    Regime,
    check_hypotheses,
    classify,
    permanence_bounds,
    product_at,
    product_at_zero,
    product_limit,
    solve_product_root,
)
from pplab.dynamics import (
    AttractivityReport,
    PeriodicOrbit,
    RelationResiduals,
    ResidueStats,
    Trajectory,
    closure_residual,
    extract_orbit,
    orbit_product_residual,
    orbit_relation_residuals,
    residue_stats,
    simulate,
    verify_attractivity,
)
from pplab.errors import (
    NonConvergenceError,
    NoOrbitError,
    NoRootError,
    TrajectoryOverflowError,
)
from pplab.models import (
    BevertonHolt,
    CoefficientFamily,
    PeriodicSystem,
    Pielou,
    RationalSaturating,
    family_from_record,
    family_to_record,
)

__version__ = "0.1.0"

__all__ = [
    "AttractivityReport",
    "BevertonHolt",
    "Classification",
    "CoefficientFamily",
    "GridSpec",
    "HypothesisReport",
    "NonConvergenceError",
    "NoOrbitError",
    "NoRootError",
    "PeriodicOrbit",
    "PeriodicSystem",
    "PermanenceBounds",
    "Pielou",
    "RationalSaturating",
    "Regime",
    "RelationResiduals",
    "ResidueStats",
    "Trajectory",
    "TrajectoryOverflowError",
    "check_hypotheses",
    "classify",
    "closure_residual",
    "extract_orbit",
    "family_from_record",
    "family_to_record",
    "orbit_product_residual",
    "orbit_relation_residuals",
    "permanence_bounds",
    "product_at",
    "product_at_zero",
    "product_limit",
    "residue_stats",
    "simulate",
    "solve_product_root",
    "verify_attractivity",
    "__version__",
]
