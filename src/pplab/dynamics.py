"""Trajectory simulation, attractor extraction, and verification checks.

Everything here works on the delayed recursion x[n+1] = x[n] * f_n(x[n-1]).
Long runs dispatch to the kernel backends (compiled when available); orbit
extraction warm-starts from a simulated tail and sharpens the cycle with
Newton iteration on the period-advance map of the state pair
(x[n-1], x[n]), whose fixed points are exactly the period-k cycles.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from pplab import kernels
from pplab.analysis import PermanenceBounds, classify, permanence_bounds, solve_product_root
from pplab.errors import NonConvergenceError, NoOrbitError, TrajectoryOverflowError
from pplab.models import PeriodicSystem

DEFAULT_OVERFLOW_LIMIT = 1e300
CONTAINMENT_EPS = 1e-9

_NEWTON_MAX_ITER = 50
_FD_REL_STEP = 1e-7
_FD_ABS_FLOOR = 1e-9


def default_sim_steps(period: int) -> int:
    """Warm-start length for orbit extraction: generous at desk-scale periods."""
    return max(10_000, 1_000 * period)


def default_burn_in(period: int) -> int:
    """Samples discarded before tail statistics and containment checks."""
    return max(1_000, 100 * period)


def default_verify_steps(period: int) -> int:
    """Run length for attractivity verification."""
    return 20_000 * period


@dataclass(frozen=True)
class Trajectory:
    """Simulated values x[1..N] with their initial pair and the forcing period.

    values[i] is x[i+1]; the residue class of index n is ((n - 1) mod k) + 1.
    """

    x0: float
    xm1: float
    period: int
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.values)

    def write_csv(self, path) -> None:
        """Write the trajectory as CSV with header ``n,x``, one row per step."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("n,x\n")
            for i, v in enumerate(self.values.tolist(), start=1):
                fh.write(f"{i},{v!r}\n")


def simulate(
    system: PeriodicSystem,
    x0: float,
    xm1: float,
    steps: int,
    *,
    stop_below: float | None = None,
    overflow_limit: float = DEFAULT_OVERFLOW_LIMIT,
) -> Trajectory:
    """Iterate the recursion from (x[0], x[-1]) = (x0, xm1) for ``steps`` steps.

    Deterministic; every stored value is finite and strictly positive.  With
    ``stop_below`` set, the run ends right after the first value below that
    threshold, which is how decaying runs avoid underflowing to zero.  Values
    beyond ``overflow_limit`` raise TrajectoryOverflowError, signalling a
    misconfigured system (bounded coefficients cannot sustain such growth).
    """
    x0 = float(x0)
    xm1 = float(xm1)
    if not (math.isfinite(x0) and x0 > 0.0):
        raise ValueError(f"x0 must be a positive finite real, got {x0!r}")
    if not (math.isfinite(xm1) and xm1 >= 0.0):
        raise ValueError(f"xm1 must be a finite real >= 0, got {xm1!r}")
    steps = int(steps)
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    floor = 0.0 if stop_below is None else float(stop_below)
    packed = kernels.pack_system(system)
    if packed is not None:
        values, status = kernels.simulate_packed(
            *packed, x0, xm1, steps, floor, float(overflow_limit)
        )
    else:
        factors = [fam.value for fam in system.coefficients]
        values, status = kernels.iterate(factors, x0, xm1, steps, floor, float(overflow_limit))
    if status == kernels.STATUS_OVERFLOW:
        raise TrajectoryOverflowError(
            f"x[{len(values)}] = {values[-1]:.6g} exceeded the overflow limit "
            f"{overflow_limit:g}; the system is misconfigured"
        )
    if status == kernels.STATUS_UNDERFLOW:
        raise ValueError(
            f"trajectory underflowed to zero at step {len(values)}; "
            "pass stop_below to end decaying runs while values are representable"
        )
    return Trajectory(x0=x0, xm1=xm1, period=system.period, values=values)


@dataclass(frozen=True)
class ResidueStats:
    """Tail extremes per residue class h = 1..k.

    sup_est[h-1] / inf_est[h-1] are the max / min over tail samples with
    index congruent to h; for a converged periodic run they pinch together
    onto the cycle values.
    """

    sup_est: np.ndarray
    inf_est: np.ndarray
    burn_in: int
    tail_length: int


def residue_stats(traj: Trajectory, burn_in: int) -> ResidueStats:
    """Estimate per-residue tail sup/inf from the samples with index > burn_in."""
    burn_in = int(burn_in)
    n_total = len(traj)
    if not 0 <= burn_in < n_total:
        raise ValueError(f"burn_in must lie in [0, {n_total}), got {burn_in}")
    k = traj.period
    tail = traj.values[burn_in:]
    sup = np.empty(k)
    inf = np.empty(k)
    for h in range(1, k + 1):
        # tail[i] is x[burn_in + 1 + i], whose residue is h when i = h - 1 - burn_in mod k
        sel = tail[(h - 1 - burn_in) % k :: k]
        if sel.size == 0:
            raise ValueError(
                f"no tail samples for residue {h}: burn_in={burn_in} leaves "
                f"{tail.size} samples for period {k}"
            )
        sup[h - 1] = sel.max()
        inf[h - 1] = sel.min()
    return ResidueStats(sup_est=sup, inf_est=inf, burn_in=burn_in, tail_length=int(tail.size))


@dataclass(frozen=True)
class PeriodicOrbit:
    """A period-k cycle: values[h-1] attracts the subsequence with index = h mod k.

    closure_residual is the worst defect of the cycle under one recursion
    step, max_h |x*[h+1] - x*[h] * f_h(x*[h-1])| with indices wrapped mod k.
    """

    values: np.ndarray
    closure_residual: float

    @property
    def period(self) -> int:
        return len(self.values)


def closure_residual(system: PeriodicSystem, values: np.ndarray) -> float:
    """max_h |x*[h+1] - x*[h] * f_h(x*[h-1])|, indices mod k."""
    k = system.period
    worst = 0.0
    for h in range(1, k + 1):
        nxt = values[h % k]
        cur = values[h - 1]
        prev = values[(h - 2) % k]
        worst = max(worst, abs(nxt - cur * system.growth_factor(h, prev)))
    return worst


def orbit_product_residual(system: PeriodicSystem, values: np.ndarray) -> float:
    """Worst defect of the k-step multiplier over all phases.

    Returning to the same cycle value after k steps forces
    prod_{j=1..k} f_{h+j}(x*[h+j-1]) = 1 for every phase h.
    """
    k = system.period
    worst = 0.0
    for h in range(k):
        p = 1.0
        for j in range(1, k + 1):
            n = h + j
            p *= system.growth_factor(n, values[(n - 2) % k])
        worst = max(worst, abs(p - 1.0))
    return worst


def _tail_cycle(traj: Trajectory) -> np.ndarray:
    # Residue-aligned copy of the last k trajectory values: x[n] lands at (n - 1) mod k.
    return np.roll(traj.values[-traj.period :], len(traj) % traj.period)


def _newton_refine(system, guess, refine_tol):
    # Newton on F(u, v) = period_advance(u, v) - (u, v) with a
    # forward-difference Jacobian; returns None on any failure so the caller
    # can fall back to the simulated estimate.
    k = system.period
    factors = [fam.value for fam in system.coefficients]

    def period_values(z):
        # x[1..k] stepped from (x[-1], x[0]) = z; None once a value reaches zero.
        values, status = kernels.iterate(factors, z[1], z[0], k, 0.0, math.inf)
        return values if status == kernels.STATUS_OK else None

    def period_advance(z):
        # The state pair (x[k-1], x[k]) after one full period from z.
        values = period_values(z)
        return None if values is None else np.append(z[1], values)[-2:]

    z = np.array([guess[(k - 2) % k], guess[k - 1]], dtype=np.float64)
    identity = np.eye(2)
    for _ in range(_NEWTON_MAX_ITER):
        g = period_advance(z)
        if g is None:
            return None
        f = g - z
        if not np.isfinite(f).all():
            return None
        res = float(np.abs(f).max())
        # Polish well past refine_tol so downstream identity checks inherit
        # near-machine accuracy.
        if res <= 1e-13 * max(1.0, float(np.abs(z).max())):
            break
        jac = np.empty((2, 2))
        for i in range(2):
            h = _FD_REL_STEP * abs(z[i])
            if h < _FD_ABS_FLOOR:
                h = _FD_ABS_FLOOR
            zp = z.copy()
            zp[i] += h
            gp = period_advance(zp)
            if gp is None:
                return None
            jac[:, i] = (gp - g) / h
        try:
            delta = np.linalg.solve(jac - identity, -f)
        except np.linalg.LinAlgError:
            return None
        if not np.isfinite(delta).all():
            return None
        znew = z + delta
        tries = 0
        while (znew <= 0.0).any() and tries < 60:
            delta = 0.5 * delta
            znew = z + delta
            tries += 1
        if (znew <= 0.0).any():
            return None
        z = znew
    values = period_values(z)
    if values is None or not np.isfinite(values).all():
        return None
    res = closure_residual(system, values)
    if res <= refine_tol:
        return PeriodicOrbit(values=values, closure_residual=res)
    return None


def extract_orbit(
    system: PeriodicSystem,
    sim_steps: int | None = None,
    refine_tol: float = 1e-10,
    warm_start: tuple[float, float] | None = None,
) -> PeriodicOrbit:
    """Locate the attracting period-k cycle.

    Phase 1 simulates ``sim_steps`` steps (default max(10^4, 10^3 k)) from
    ``warm_start`` = (x0, xm1), by default both components at the unit-product
    root, and reads the final k values as a residue-aligned estimate; global
    attractivity guarantees this lands in the basin.  Phase 2 runs Newton on
    the period-advance map from that estimate and regenerates the cycle from
    the refined fixed point.  If Newton fails but the phase-1 estimate already
    closes to within refine_tol, the estimate is returned; otherwise
    NonConvergenceError.
    """
    cls = classify(system)
    if not cls.is_periodic_attractive:
        raise NoOrbitError(
            f"no periodic attractor: regime is {cls.regime.value} "
            f"(P0 = {cls.product_at_zero:.6g}, limit product = {cls.product_limit:.6g})"
        )
    if not (refine_tol > 0.0):
        raise ValueError(f"refine_tol must be positive, got {refine_tol!r}")
    k = system.period
    if sim_steps is None:
        sim_steps = default_sim_steps(k)
    if sim_steps < k:
        raise ValueError(f"sim_steps must be >= period ({k}), got {sim_steps}")
    if warm_start is None:
        root = solve_product_root(system)
        warm_start = (root, root)
    traj = simulate(system, warm_start[0], warm_start[1], sim_steps)
    guess = _tail_cycle(traj)
    refined = _newton_refine(system, guess, refine_tol)
    if refined is not None:
        return refined
    phase1_res = closure_residual(system, guess)
    if phase1_res <= refine_tol:
        return PeriodicOrbit(values=guess, closure_residual=phase1_res)
    raise NonConvergenceError(
        f"cycle refinement failed: Newton did not converge and the simulated "
        f"estimate closes only to {phase1_res:.3e} (> {refine_tol:g})"
    )


@dataclass(frozen=True)
class RelationResiduals:
    """Identity residuals of the cycle, one per phase h = 1..k (see
    :func:`orbit_relation_residuals` for the formulas)."""

    kind: str
    residuals: np.ndarray

    @property
    def max_residual(self) -> float:
        return float(self.residuals.max())


def orbit_relation_residuals(system: PeriodicSystem, orbit: PeriodicOrbit) -> RelationResiduals:
    """Parity-specific identities the attracting cycle must satisfy.

    Even period ("pair_product"): for each phase h the chained pair products

        prod_{m=1..k/2} f_{h-2m}(x*[h-2m-1]) * f_{h-2m+1}(x*[h-2m])

    telescope to one.  For k = 2 this reduces to the single pair
    f_h(x*[h-1]) * f_{h-1}(x*[h]) = 1.

    Odd period ("two_step"): each value returns after two steps,

        x*[h] = x*[h-2] * f_{h-2}(x*[h-3]) * f_{h-1}(x*[h-2]).

    Indices wrap mod k.  Residuals are reported, never raised.
    """
    vals = orbit.values
    k = system.period
    if len(vals) != k:
        raise ValueError(f"orbit has period {len(vals)}, system has period {k}")
    res = np.empty(k)
    if k % 2 == 0:
        kind = "pair_product"
        for h in range(1, k + 1):
            p = 1.0
            for m in range(1, k // 2 + 1):
                i1 = h - 2 * m
                i2 = h - 2 * m + 1
                p *= system.growth_factor(i1, vals[(i1 - 2) % k])
                p *= system.growth_factor(i2, vals[(i2 - 2) % k])
            res[h - 1] = abs(p - 1.0)
    else:
        kind = "two_step"
        for h in range(1, k + 1):
            pred = (
                vals[(h - 3) % k]
                * system.growth_factor(h - 2, vals[(h - 4) % k])
                * system.growth_factor(h - 1, vals[(h - 3) % k])
            )
            res[h - 1] = abs(vals[h - 1] - pred)
    return RelationResiduals(kind=kind, residuals=res)


@dataclass(frozen=True)
class AttractivityReport:
    """Outcome of basin sampling against an extracted cycle.

    deviations[i] is max_h |x_tail_h - x*[h]| for initial i (the last entry is
    the fixed boundary initial with xm1 = 0).  ``passed`` means
    max_deviation <= tol; ``containment_ok`` means every post-burn-in sample of
    every run stayed inside [lower * (1 - eps), upper * (1 + eps)],
    eps = 1e-9.
    """

    initials: tuple[tuple[float, float], ...]
    deviations: np.ndarray
    max_deviation: float
    tol: float
    passed: bool
    containment_ok: bool
    lower: float
    upper: float
    steps: int
    seed: int
    burn_in: int


def verify_attractivity(
    system: PeriodicSystem,
    orbit: PeriodicOrbit,
    n_initials: int = 32,
    steps: int | None = None,
    seed: int = 0,
    tol: float = 1e-8,
    burn_in: int | None = None,
    bounds: PermanenceBounds | None = None,
) -> AttractivityReport:
    """Check that randomized initial conditions all converge to the cycle.

    Draws ``n_initials`` pairs (x0, xm1) log-uniformly over
    [lower/10, 10*upper] from the given seed (the low end floored at the
    smallest normal double), always appending the boundary
    initial (root, 0.0), simulates each for ``steps`` steps, and compares the
    residue-aligned tail against the cycle.  Also records whether every
    post-burn-in sample stayed inside the permanence interval.  The runs are
    independent (results are ordered by initial index).  ``bounds`` are the
    system's permanence bounds, solved here at the default tolerance when
    omitted.
    """
    cls = classify(system)
    if not cls.is_periodic_attractive:
        raise NoOrbitError(
            f"attractivity verification needs a periodic attractor; regime is {cls.regime.value}"
        )
    k = system.period
    if steps is None:
        steps = default_verify_steps(k)
    if burn_in is None:
        burn_in = default_burn_in(k)
    steps = int(steps)
    burn_in = int(burn_in)
    if n_initials < 1:
        raise ValueError(f"n_initials must be >= 1, got {n_initials}")
    if steps < k:
        raise ValueError(f"steps must be >= period ({k}), got {steps}")
    if not 0 <= burn_in < steps:
        raise ValueError(f"burn_in must lie in [0, steps), got {burn_in} with steps={steps}")
    if not (tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol!r}")
    if bounds is None:
        bounds = permanence_bounds(system)
    rng = np.random.default_rng(seed)
    # lower underflows to 0 for strongly persistent long-period schedules;
    # flooring at the smallest normal double keeps the log finite.
    log_lo = math.log(max(bounds.lower / 10.0, sys.float_info.min))
    log_hi = math.log(10.0 * bounds.upper)
    x0s = np.exp(rng.uniform(log_lo, log_hi, n_initials))
    xm1s = np.exp(rng.uniform(log_lo, log_hi, n_initials))
    initials = [(float(a), float(b)) for a, b in zip(x0s, xm1s)]
    initials.append((bounds.root, 0.0))
    lo_bound = bounds.lower * (1.0 - CONTAINMENT_EPS)
    hi_bound = bounds.upper * (1.0 + CONTAINMENT_EPS)
    deviations = np.empty(len(initials))
    containment_ok = True
    for i, (x0, xm1) in enumerate(initials):
        traj = simulate(system, x0, xm1, steps)
        tail = _tail_cycle(traj)
        deviations[i] = float(np.abs(tail - orbit.values).max())
        seg = traj.values[burn_in:]
        if seg.min() < lo_bound or seg.max() > hi_bound:
            containment_ok = False
    max_dev = float(deviations.max())
    return AttractivityReport(
        initials=tuple(initials),
        deviations=deviations,
        max_deviation=max_dev,
        tol=float(tol),
        passed=bool(max_dev <= tol),
        containment_ok=containment_ok,
        lower=bounds.lower,
        upper=bounds.upper,
        steps=steps,
        seed=int(seed),
        burn_in=burn_in,
    )
