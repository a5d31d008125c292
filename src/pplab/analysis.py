"""Threshold products, regime classification, and permanence bounds.

The global dynamics of the recursion are decided by two numbers: the product
of the coefficient functions at zero, P0 = prod f_n(0), and the limit of the
same product at infinity, c.  P0 <= 1 sends every trajectory to zero;
P0 > 1 together with c < 1 produces a globally attractive period-k cycle,
whose tail is trapped in an explicit interval built from the unique positive
root of prod f_n(x) = 1.  Anything else is outside the supported regime and
reported as such, never analyzed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from pplab.errors import NonConvergenceError, NoRootError
from pplab.models import PeriodicSystem

DEFAULT_ROOT_TOL = 1e-12
_MAX_BRACKET_DOUBLINGS = 200
_MAX_BISECTIONS = 200


def product_at(system: PeriodicSystem, x: float) -> float:
    """prod_{n=1..k} f_n(x); strictly decreasing in x for decreasing families."""
    return math.prod(fam.value(x) for fam in system.coefficients)


def product_at_zero(system: PeriodicSystem) -> float:
    """P0 = prod f_n(0), computed from the families' closed forms."""
    return math.prod(fam.at_zero() for fam in system.coefficients)


def product_limit(system: PeriodicSystem) -> float:
    """c = lim of prod f_n(x) at infinity, from per-family closed-form limits."""
    return math.prod(fam.limit_at_infinity() for fam in system.coefficients)


class Regime(enum.Enum):
    ZERO_ATTRACTIVE = "zero_attractive"
    PERIODIC_ATTRACTIVE = "periodic_attractive"
    OUT_OF_THEORY = "out_of_theory"


@dataclass(frozen=True)
class Classification:
    """Regime plus the two threshold products that decide it."""

    regime: Regime
    product_at_zero: float
    product_limit: float

    @property
    def is_periodic_attractive(self) -> bool:
        return self.regime is Regime.PERIODIC_ATTRACTIVE


def classify(system: PeriodicSystem) -> Classification:
    """Three-way regime decision from the closed-form threshold products.

    P0 <= 1 (ties included) means every trajectory decays to zero.  P0 > 1
    with limit product c < 1 means a globally attractive period-k cycle
    exists.  P0 > 1 with c >= 1 is outside the supported regime.
    """
    p0 = product_at_zero(system)
    c = product_limit(system)
    if p0 <= 1.0:
        regime = Regime.ZERO_ATTRACTIVE
    elif c < 1.0:
        regime = Regime.PERIODIC_ATTRACTIVE
    else:
        regime = Regime.OUT_OF_THEORY
    return Classification(regime=regime, product_at_zero=p0, product_limit=c)


@dataclass(frozen=True)
class GridSpec:
    """Abscissae for the monotonicity guard.

    ``points`` log-spaced nodes spanning six decades up to x_max, with zero
    prepended.
    """

    x_max: float = 100.0
    points: int = 256

    def __post_init__(self):
        if not (math.isfinite(self.x_max) and self.x_max > 0.0):
            raise ValueError(f"x_max must be positive, got {self.x_max!r}")
        if self.points < 2:
            raise ValueError(f"points must be >= 2, got {self.points!r}")

    def abscissae(self) -> np.ndarray:
        return np.concatenate(
            ([0.0], np.geomspace(self.x_max * 1e-6, self.x_max, self.points))
        )


@dataclass(frozen=True)
class HypothesisReport:
    """Per-slot outcomes of the monotonicity checks on a finite grid.

    decreasing_ok[i]: f_i strictly decreases between all consecutive grid
    points; xf_increasing_ok[i]: x * f_i(x) strictly increases.
    worst_violation is the most negative difference seen anywhere, 0.0 when
    every check passes.
    """

    decreasing_ok: tuple[bool, ...]
    xf_increasing_ok: tuple[bool, ...]
    grid: np.ndarray
    worst_violation: float

    @property
    def all_ok(self) -> bool:
        return all(self.decreasing_ok) and all(self.xf_increasing_ok)


def check_hypotheses(system: PeriodicSystem, grid: GridSpec = GridSpec()) -> HypothesisReport:
    """Guard against misconfigured custom families.

    The built-in families are provably monotone; this evaluates each slot on
    the grid and reports violations as data rather than raising.
    """
    xs = grid.abscissae()
    dec_ok = []
    inc_ok = []
    worst = 0.0
    for fam in system.coefficients:
        vals = np.array([fam.value(float(x)) for x in xs])
        dec_diffs = vals[:-1] - vals[1:]
        xf = xs * vals
        inc_diffs = xf[1:] - xf[:-1]
        dec_ok.append(bool(np.all(dec_diffs > 0.0)))
        inc_ok.append(bool(np.all(inc_diffs > 0.0)))
        worst = min(worst, float(dec_diffs.min()), float(inc_diffs.min()))
    return HypothesisReport(
        decreasing_ok=tuple(dec_ok),
        xf_increasing_ok=tuple(inc_ok),
        grid=xs,
        worst_violation=worst,
    )


def solve_product_root(system: PeriodicSystem, tol: float = DEFAULT_ROOT_TOL) -> float:
    """Unique positive solution of product_at(system, x) = 1.

    Doubles the right end of the bracket from 1 until the product drops below
    one, then bisects; strict decrease of the product makes this converge
    unconditionally.  The result carries a value-space certificate:
    |product_at(system, root) - 1| <= tol.
    """
    if not (tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol!r}")
    cls = classify(system)
    if not cls.is_periodic_attractive:
        raise NoRootError(
            f"product crosses one only in the periodic-attractive regime; "
            f"got {cls.regime.value} (P0 = {cls.product_at_zero:.6g}, "
            f"limit product = {cls.product_limit:.6g})"
        )
    lo = 0.0
    hi = 1.0
    for _ in range(_MAX_BRACKET_DOUBLINGS):
        p_hi = product_at(system, hi)
        if abs(p_hi - 1.0) <= tol:
            return hi
        if p_hi < 1.0:
            break
        lo, hi = hi, 2.0 * hi
    else:
        raise NonConvergenceError("bracket expansion exceeded 200 doublings")
    for _ in range(_MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        p_mid = product_at(system, mid)
        if abs(p_mid - 1.0) <= tol:
            return mid
        if p_mid > 1.0:
            lo = mid
        else:
            hi = mid
    raise NonConvergenceError(
        f"bisection exceeded 200 iterations without meeting the certificate tol={tol:g}"
    )


@dataclass(frozen=True)
class PermanenceBounds:
    """Explicit interval that eventually traps every trajectory.

    ``root`` solves product_at(x) = 1; ``upper`` = root * product_at(0);
    ``lower`` = root * product_at(upper).  Always 0 < lower <= root <= upper.
    """

    root: float
    lower: float
    upper: float


def permanence_bounds(system: PeriodicSystem, tol: float = DEFAULT_ROOT_TOL) -> PermanenceBounds:
    """Compute the trapping interval for a periodic-attractive system.

    Raises NoRootError outside that regime (propagated from the root solve).
    """
    root = solve_product_root(system, tol)
    upper = root * product_at(system, 0.0)
    lower = root * product_at(system, upper)
    return PermanenceBounds(root=root, lower=lower, upper=upper)
