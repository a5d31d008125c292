"""Output checks that do not trust pplab's own numbers.

The expected regime, and from it the expected exit code, come from the
closed-form products at zero and at infinity of the benchmark's own family
formulas.  A returned cycle is re-closed with the same formulas.  Report
bytes and digests are never compared, so a change that states it alters the
report layout is not counted as failing.
"""

from __future__ import annotations

import json
import math
import os

# A returned cycle must close either to the scenario's absolute orbit_tol,
# which is pplab's documented contract, or to this share of its own scale,
# which is what a scale-aware tolerance would promise.  The slack covers
# nothing but rounding: the recomputation uses pplab's arithmetic order.
CLOSURE_REL_TOL = 1e-9
CLOSURE_ABS_SLACK = 2.0
DEFAULT_ORBIT_TOL = 1e-10


def coefficient(record: dict, x: float) -> float:
    """f(x) for one tagged coefficient record."""
    family = record["family"]
    if family == "pielou":
        return record["beta"] / (1.0 + x)
    if family == "beverton_holt":
        lam = record["lambda"]
        return lam / (1.0 + (lam - 1.0) * x / record["capacity"])
    if family == "rational":
        return record["beta"] / (1.0 + record["alpha1"] * x / (1.0 + record["alpha2"] * x))
    raise ValueError(f"unknown family {family!r}")


def _at_zero(record: dict) -> float:
    return record["lambda"] if record["family"] == "beverton_holt" else record["beta"]


def _at_infinity(record: dict) -> float:
    if record["family"] == "rational":
        return record["beta"] / (1.0 + record["alpha1"] / record["alpha2"])
    return 0.0


def expected_regime(scenario: dict) -> str:
    coeffs = scenario["coefficients"]
    p0 = math.prod(_at_zero(r) for r in coeffs)
    c = math.prod(_at_infinity(r) for r in coeffs)
    if p0 <= 1.0:
        return "zero_attractive"
    if c < 1.0:
        return "periodic_attractive"
    return "out_of_theory"


def expected_exit(regime: str) -> int:
    """orbit, verify and full pass only where a cycle exists."""
    return 0 if regime == "periodic_attractive" else 2


def closure_defect(coeffs: list, values: list) -> float:
    """max_h |x[h+1] - x[h] f_h(x[h-1])|, indices mod k."""
    k = len(coeffs)
    worst = 0.0
    for h in range(1, k + 1):
        nxt, cur, prev = values[h % k], values[h - 1], values[(h - 2) % k]
        worst = max(worst, abs(nxt - cur * coefficient(coeffs[(h - 1) % k], prev)))
    return worst


def _csv_rows(path: str) -> int:
    with open(path, "rb") as fh:
        lines = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
    return lines - 1  # header "n,x"


def check_operation(command: str, scenario: dict, out_dir: str, code: int) -> str | None:
    """Return None when the operation's outputs are right, else the reason."""
    regime = expected_regime(scenario)
    want = expected_exit(regime)
    report_path = os.path.join(out_dir, scenario.get("outputs", {}).get("report_path", "report.json"))
    try:
        with open(report_path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return f"report unreadable: {exc}"
    if code != want:
        failures = report.get("status", {}).get("failures") or ["none listed"]
        return f"exit {code}, expected {want} ({regime}): {failures[0]}"
    got = report.get("classification", {}).get("regime")
    if got != regime:
        return f"regime {got!r}, expected {regime!r}"
    if regime != "periodic_attractive":
        return None
    values = report.get("orbit", {}).get("values")
    if not values or len(values) != len(scenario["coefficients"]):
        return "orbit values missing"
    defect = closure_defect(scenario["coefficients"], values)
    orbit_tol = scenario.get("tolerances", {}).get("orbit_tol", DEFAULT_ORBIT_TOL)
    scale = max(abs(v) for v in values)
    if not (defect <= CLOSURE_ABS_SLACK * orbit_tol or defect <= CLOSURE_REL_TOL * scale):
        return f"cycle closes only to {defect:.3e} (cycle scale {scale:.3e})"
    if command in ("verify", "full") and report.get("verification", {}).get("passed") is not True:
        return "verification did not pass"
    if command == "full":
        traj = report.get("trajectory", {})
        csv_rel = traj.get("csv")
        if csv_rel is None:
            return "trajectory section missing"
        rows = _csv_rows(os.path.join(out_dir, csv_rel))
        if rows != traj.get("stored_steps"):
            return f"CSV has {rows} rows, report says {traj.get('stored_steps')}"
    return None
