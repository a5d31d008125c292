"""Seeded, stratified operation blocks for the three benchmark workloads.

An operation is one CLI command on one scenario file.  Operations come in
blocks: the structure of a block (command, period, family mix, target regime,
position in the block) is fixed, and the seed only draws the parameter values
inside each slot.  A run covers whole blocks, so two seeds give the same mix
of work, which keeps the per-run numbers comparable across seeds, while the
values themselves differ.  Block ``b`` draws its parameters from ``(seed,
workload, b)``; an op is the same however far the run gets.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

# Relative to the checkout root.  verify_fleet runs these unchanged.
SHIPPED_SCENARIOS = (
    "scenarios/pielou_k2.json",
    "scenarios/rational_k2.json",
    "scenarios/beverton_holt_k3.json",
    "scenarios/zero_boundary_k2.json",
)

LONG_PERIOD_STEPS = 200_000
LONG_PERIOD_INITIALS = 4
# Fewer initials than the default 32 keep a verify op near a fifth of a
# second, so a run holds many of them.
# One step count for every period gives the generated ops one cost, so the
# median does not jump between the cost levels of different periods.
FLEET_INITIALS = 8
FLEET_STEPS = 60_000


@dataclass(frozen=True)
class Op:
    """One operation: run ``command`` on a scenario.

    Exactly one of ``scenario`` (a generated scenario object, written to a
    file before the op) and ``path`` (a shipped scenario file) is set.
    """

    index: int
    command: str
    label: str
    scenario: dict | None = None
    path: str | None = None


def _zero_sum(rng, k, sigma):
    z = rng.normal(0.0, sigma, k)
    return z - z.mean()


def _log_uniform(rng, lo, hi):
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


# ---- coefficient schedules ------------------------------------------------
#
# ``scale`` is the size of the cycle values the schedule is built around;
# Pielou has no free scale, so its scale enters through the product at zero.


def _pielou(rng, k, scale, regime):
    z = _zero_sum(rng, k, 0.5)
    if regime == "periodic_attractive":
        # prod beta / (1 + x)^k = 1 has its root at x = scale.
        log_b = math.log1p(scale) + z
    else:
        log_b = z - rng.uniform(0.05, 0.5)
    return [{"family": "pielou", "beta": float(math.exp(v))} for v in log_b]


def _beverton_holt(rng, k, scale):
    z = _zero_sum(rng, k, 0.3)
    return [
        {
            "family": "beverton_holt",
            "lambda": _log_uniform(rng, 1.2, 8.0),
            "capacity": float(scale * math.exp(v)),
        }
        for v in z
    ]


def _rational(rng, k, scale, regime):
    # With r = alpha1 / alpha2, the product at zero is prod beta and the
    # limit product is prod beta / (1 + r).  Setting sum(log beta) to
    # u * L, L = sum(log(1 + r)), places the system by u alone:
    # u <= 0 decays, 0 < u < 1 is periodic, u >= 1 is out of theory.
    r = np.array([_log_uniform(rng, 1.0, 20.0) for _ in range(k)])
    big_l = float(np.log1p(r).sum())
    u = {
        "zero_attractive": rng.uniform(-0.6, -0.1),
        "periodic_attractive": rng.uniform(0.15, 0.85),
        "out_of_theory": rng.uniform(1.1, 1.6),
    }[regime]
    # The zero-sum jitter keeps sum(log beta) at u * L.
    log_b = u * np.log1p(r) + _zero_sum(rng, k, 0.3)
    alpha2 = np.exp(_zero_sum(rng, k, 0.3)) / scale
    return [
        {
            "family": "rational",
            "beta": float(math.exp(b)),
            "alpha1": float(ri * a2),
            "alpha2": float(a2),
        }
        for b, ri, a2 in zip(log_b, r, alpha2)
    ]


def _mixed(rng, k, scale, regime):
    # A mix of all three families has limit product 0 whenever one slot is
    # Pielou or Beverton-Holt, so the product at zero alone sets the regime.
    kinds = [("pielou", "beverton_holt", "rational")[i % 3] for i in range(k)]
    kinds = [kinds[j] for j in rng.permutation(k)]
    if regime == "zero_attractive" and all(c == "beverton_holt" for c in kinds):
        kinds[0] = "pielou"
    if regime != "zero_attractive" and "beverton_holt" not in kinds and "pielou" not in kinds:
        kinds[0] = "pielou"
    log_at_zero = np.empty(k)
    free = [i for i, c in enumerate(kinds) if c != "beverton_holt"]
    for i, c in enumerate(kinds):
        log_at_zero[i] = rng.uniform(0.2, 2.0) if c == "beverton_holt" else rng.uniform(-1.0, 2.0)
    total = float(log_at_zero.sum())
    if regime == "periodic_attractive":
        target = max(total, rng.uniform(0.1, 1.0))
    else:
        target = -rng.uniform(0.05, 0.5)
    if free:
        log_at_zero[free] -= (total - target) / len(free)
    records = []
    for c, g in zip(kinds, log_at_zero):
        if c == "pielou":
            records.append({"family": "pielou", "beta": float(math.exp(g))})
        elif c == "beverton_holt":
            records.append(
                {
                    "family": "beverton_holt",
                    "lambda": float(math.exp(g)),
                    "capacity": float(scale * math.exp(rng.normal(0.0, 0.3))),
                }
            )
        else:
            a2 = math.exp(rng.normal(0.0, 0.3)) / scale
            records.append(
                {
                    "family": "rational",
                    "beta": float(math.exp(g)),
                    "alpha1": float(_log_uniform(rng, 1.0, 20.0) * a2),
                    "alpha2": float(a2),
                }
            )
    return records


def _schedule(rng, family, k, scale, regime):
    if family == "pielou":
        return _pielou(rng, k, scale, regime)
    if family == "beverton_holt":
        return _beverton_holt(rng, k, scale)
    if family == "rational":
        return _rational(rng, k, scale, regime)
    return _mixed(rng, k, scale, regime)


def _scenario(coefficients, **extra):
    return {"period": len(coefficients), "coefficients": coefficients, **extra}


# ---- blocks ----------------------------------------------------------------

# regime_sweep: 50 orbit ops per period k = 1..8, 400 per block, with scales
# within 0.1..10.
_SWEEP_SLOTS = (
    [("pielou", "periodic_attractive")] * 16
    + [("beverton_holt", "periodic_attractive")] * 11
    + [("rational", "periodic_attractive")] * 10
    + [("mixed", "periodic_attractive")] * 6
    + [("pielou", "zero_attractive")] * 2
    + [("rational", "zero_attractive")] * 1
    + [("mixed", "zero_attractive")] * 2
    + [("rational", "out_of_theory")] * 2
)


def _regime_sweep_block(rng, seed, block):
    ops = []
    for family, regime in _SWEEP_SLOTS:
        for k in range(1, 9):
            if family == "mixed" and k == 1:
                fam = "pielou" if regime == "zero_attractive" else "beverton_holt"
            else:
                fam = family
            scale = 10.0 ** rng.uniform(-1.0, 1.0)
            coeffs = _schedule(rng, fam, k, scale, regime)
            ops.append(("orbit", f"k{k}-{fam}-{regime}", _scenario(coeffs), None))
    return ops


def _verify_fleet_block(rng, seed, block):
    ops = [("verify", f"shipped-{os.path.basename(p)[:-5]}", None, p) for p in SHIPPED_SCENARIOS]
    plan = [("pielou", k) for k in range(2, 7)] + [("beverton_holt", k) for k in range(2, 7)]
    plan += [("mixed_p_bh", 3), ("mixed_p_bh", 5)]
    for family, k in plan:
        scale = 10.0 ** rng.uniform(-0.7, 1.3)
        if family == "mixed_p_bh":
            p = _pielou(rng, k, scale, "periodic_attractive")
            b = _beverton_holt(rng, k, scale)
            coeffs = [p[i] if i % 2 == 0 else b[i] for i in range(k)]
        else:
            coeffs = _schedule(rng, family, k, scale, "periodic_attractive")
        scenario = _scenario(
            coeffs,
            steps=FLEET_STEPS,
            verify={"n_initials": FLEET_INITIALS, "seed": int(rng.integers(0, 2**31))},
        )
        ops.append(("verify", f"k{k}-{family}", scenario, None))
    return ops


def seasonal_pielou(k, p0, amplitude, phase):
    """beta_n = exp(a sin(2 pi n / k + phi) + ln(P0) / k), n = 1..k."""
    return [
        {
            "family": "pielou",
            "beta": float(
                math.exp(amplitude * math.sin(2.0 * math.pi * n / k + phase) + math.log(p0) / k)
            ),
        }
        for n in range(1, k + 1)
    ]


# long_period_full: per block, k = 20 takes one P0 from each band of 1..1e12
# and k = 200 one from each band of 1..10**2.5.  Above about P0 = 1e15 at
# k = 20 and P0 = 10**3.5 at k = 200 the permanence bound underflows to 0
# and verify_attractivity raises ValueError, so those schedules stay out.
_LONG_PLAN = (
    (20, (0.01, 3.0)),
    (20, (3.0, 6.0)),
    (20, (6.0, 9.0)),
    (20, (9.0, 12.0)),
    (200, (0.01, 1.25)),
    (200, (1.25, 2.5)),
)
_GOLDEN = (5.0**0.5 - 1.0) / 2.0


def _long_period_block(rng, seed, block):
    # Where P0 falls inside its band follows a golden-ratio sequence from a
    # per-seed start, so the blocks of one run cover each band evenly and
    # every run samples the bands alike.
    start = np.random.default_rng([seed, 2]).uniform()
    ops = []
    for j, (k, (lo, hi)) in enumerate(_LONG_PLAN):
        t = (start + block * _GOLDEN + j / len(_LONG_PLAN)) % 1.0
        p0 = 10.0 ** (lo + t * (hi - lo))
        coeffs = seasonal_pielou(k, p0, rng.uniform(0.2, 1.0), rng.uniform(0.0, 2.0 * math.pi))
        scenario = _scenario(
            coeffs,
            steps=LONG_PERIOD_STEPS,
            verify={"n_initials": LONG_PERIOD_INITIALS, "seed": int(rng.integers(0, 2**31))},
        )
        ops.append(("full", f"k{k}-log10P0-{lo:g}-{hi:g}", scenario, None))
    return ops


_BLOCKS = {
    "regime_sweep": _regime_sweep_block,
    "verify_fleet": _verify_fleet_block,
    "long_period_full": _long_period_block,
}

WORKLOADS = tuple(_BLOCKS)


def block_ops(workload: str, seed: int, block: int) -> list[Op]:
    """The operations of block ``block`` of ``workload`` for ``seed``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), block])
    raw = _BLOCKS[workload](rng, seed, block)
    # A fixed, seed-independent order interleaves the kinds of op.
    raw = [raw[j] for j in np.random.default_rng(len(raw)).permutation(len(raw))]
    size = len(raw)
    return [
        Op(index=block * size + i, command=c, label=label, scenario=sc, path=p)
        for i, (c, label, sc, p) in enumerate(raw)
    ]

