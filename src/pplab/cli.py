"""Scenario-driven command-line front end.

Usage: ``pplab {analyze,simulate,orbit,verify,full} --scenario FILE [--out DIR]``

Each command runs its row of ``_COMMANDS``: an ordered list of stages, each
of which adds its sections and failures to the report.  ``analyze``
classifies the regime, checks the monotonicity hypotheses on a grid and, in
the periodic regime, solves the permanence interval; ``orbit`` extracts the
cycle and its identity residuals; ``verify`` checks attractivity from seeded
random starts; ``simulate`` writes the trajectory CSV and residue tail
statistics.

A scenario is a JSON object describing the system and run parameters.  Each
setting besides period, coefficients and steps is one row of ``_SETTINGS``
(key, kind, default, lower bound, grouped by section), which validates it
and supplies its default; every number must be finite.  The effective
values are echoed into the emitted report so runs are self-describing.
Reports are deterministic: the same scenario and seed produce byte-identical
files (the env var ``PPLAB_SEED`` overrides the scenario seed).

Exit status: 0 when all requested checks pass, 2 when a check fails (e.g.
orbit requested outside the attracting regime, verification deviation above
tolerance, trajectory overflow or underflow), 1 on input or usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from types import SimpleNamespace

from pplab import __version__, kernels
from pplab.analysis import GridSpec, check_hypotheses, classify, permanence_bounds
from pplab.dynamics import (
    default_burn_in,
    extract_orbit,
    orbit_product_residual,
    orbit_relation_residuals,
    residue_stats,
    simulate,
    verify_attractivity,
)
from pplab.errors import NonConvergenceError, TrajectoryOverflowError
from pplab.models import PeriodicSystem, family_from_record, family_to_record

# Decaying runs stop just above the smallest normal doubles so every stored
# trajectory value stays strictly positive.
SIMULATE_FLOOR = 1e-300

# Longest run a scenario may ask for; the kernels allocate all steps up front.
MAX_STEPS = 10**9

# The scenario settings besides period, coefficients and steps, in echo order:
# section -> (key, kind, default, lower bound as (">" or ">=", value)) rows.
# A str setting must be a non-empty string; one whose default is None is
# optional.
_SETTINGS = {
    "initial": (
        ("x0", float, 1.0, (">", 0.0)),
        ("xm1", float, 1.0, (">=", 0.0)),
    ),
    "tolerances": (
        ("root_tol", float, 1e-12, (">", 0.0)),
        ("orbit_tol", float, 1e-10, (">", 0.0)),
        ("verify_tol", float, 1e-8, (">", 0.0)),
    ),
    "verify": (
        ("n_initials", int, 32, (">=", 1)),
        ("seed", int, 0, (">=", 0)),
    ),
    "outputs": (
        ("report_path", str, "report.json", None),
        ("trajectory_csv_path", str, None, None),
    ),
}


class ScenarioError(ValueError):
    """Scenario file missing, malformed, or failing schema validation."""


def _check(where: str, raw, kind: type, bound):
    """``raw`` as a ``kind`` value that meets ``bound``, else ScenarioError."""
    if kind is str:
        if isinstance(raw, str) and raw:
            return raw
        raise ScenarioError(f"{where} must be a non-empty string, got {raw!r}")
    noun = "a finite number" if kind is float else "an integer"
    if isinstance(raw, bool) or not isinstance(raw, (int, float) if kind is float else int):
        raise ScenarioError(f"{where} must be {noun}, got {raw!r}")
    try:
        value = kind(raw)
    except OverflowError:  # an integer beyond the range of doubles
        value = math.inf
    op, low = bound
    if not (value > low if op == ">" else value >= low) or (
        kind is float and not math.isfinite(value)
    ):
        raise ScenarioError(f"{where} must be {noun} {op} {low}, got {raw!r}")
    return value


def load_scenario(path) -> SimpleNamespace:
    """Parse and validate a scenario file, materializing all defaults.

    The result holds ``system``, ``steps``, ``burn_in`` and one attribute per
    setting of ``_SETTINGS``, named by its key.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(
                f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from exc
    if not isinstance(data, dict):
        raise ScenarioError(f"{path}: scenario must be a JSON object")
    allowed_top = ("period", "coefficients", "steps", *_SETTINGS)
    unknown = set(data) - set(allowed_top)
    if unknown:
        raise ScenarioError(f"unknown scenario keys {sorted(unknown)} (allowed: {list(allowed_top)})")
    for required in ("period", "coefficients"):
        if required not in data:
            raise ScenarioError(f"missing required scenario key {required!r}")

    period = _check("period", data["period"], int, (">=", 1))
    records = data["coefficients"]
    if not isinstance(records, list):
        raise ScenarioError(f"coefficients must be a list, got {records!r}")
    if len(records) != period:
        raise ScenarioError(
            f"period is {period} but coefficients has {len(records)} entries"
        )
    families = []
    for i, record in enumerate(records):
        try:
            families.append(family_from_record(record))
        except ValueError as exc:
            raise ScenarioError(f"coefficients[{i}]: {exc}") from exc
    steps = _check("steps", data.get("steps", 20_000 * period), int, (">=", period))
    if steps > MAX_STEPS:
        raise ScenarioError(f"steps must be an integer <= {MAX_STEPS}, got {steps}")

    settings = {}
    for section, rows in _SETTINGS.items():
        obj = data.get(section, {})
        if not isinstance(obj, dict):
            raise ScenarioError(f"{section} must be an object, got {obj!r}")
        allowed = [row[0] for row in rows]
        unknown = set(obj) - set(allowed)
        if unknown:
            raise ScenarioError(
                f"{section} has unknown keys {sorted(unknown)} (allowed: {allowed})"
            )
        for key, kind, default, bound in rows:
            raw = obj.get(key, default)
            if raw is None and default is None:
                settings[key] = None
            else:
                settings[key] = _check(f"{section}.{key}", raw, kind, bound)
    return SimpleNamespace(
        system=PeriodicSystem(families),
        steps=steps,
        burn_in=min(default_burn_in(period), steps - period),
        **settings,
    )


def _resolve(out_dir, rel_path) -> str:
    path = rel_path if os.path.isabs(rel_path) else os.path.join(out_dir, rel_path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return path


def _fail(st, section: str, status: str, reason: str, failure: str | None = None) -> None:
    """Record ``section`` as a status-and-reason entry plus its failure line."""
    st.report[section] = {"status": status, "reason": reason}
    st.failures.append(f"{section}: {failure or reason}")


# Stages: each reads the scenario ``sc`` and the run state ``st`` (report,
# failures, out_dir, and the classification, bounds and orbit that earlier
# stages found), and adds its report sections and failures.


def _analyze(sc, st) -> None:
    cls = st.cls = classify(sc.system)
    st.report["classification"] = {
        "regime": cls.regime.value,
        "product_at_zero": cls.product_at_zero,
        "product_limit": cls.product_limit,
    }
    error = None
    if cls.is_periodic_attractive:
        try:
            st.bounds = permanence_bounds(sc.system, sc.root_tol)
        except NonConvergenceError as exc:
            error = exc
    grid = GridSpec(x_max=10.0 * st.bounds.upper if st.bounds is not None else 100.0)
    hyp = check_hypotheses(sc.system, grid)
    st.report["hypotheses"] = {
        "x_max": grid.x_max,
        "points": grid.points,
        "decreasing_ok": list(hyp.decreasing_ok),
        "xf_increasing_ok": list(hyp.xf_increasing_ok),
        "worst_violation": hyp.worst_violation,
        "all_ok": hyp.all_ok,
    }
    if not hyp.all_ok:
        st.failures.append("hypotheses: monotonicity check failed on the grid")
    if error is not None:
        _fail(st, "permanence", "failed", str(error))
    elif st.bounds is not None:
        b = st.bounds
        st.report["permanence"] = {"root": b.root, "lower": b.lower, "upper": b.upper}


def _orbit(sc, st) -> None:
    if not st.cls.is_periodic_attractive:
        reason = f"regime is {st.cls.regime.value}"
        _fail(st, "orbit", "not_applicable", reason, f"not applicable ({reason})")
        return
    warm_start = None if st.bounds is None else (st.bounds.root, st.bounds.root)
    try:
        orbit = extract_orbit(sc.system, refine_tol=sc.orbit_tol, warm_start=warm_start)
    except NonConvergenceError as exc:
        _fail(st, "orbit", "failed", str(exc))
        return
    st.orbit = orbit
    st.report["orbit"] = {
        "status": "ok",
        "values": [float(v) for v in orbit.values],
        "closure_residual": orbit.closure_residual,
        "product_residual": orbit_product_residual(sc.system, orbit.values),
    }
    rel = orbit_relation_residuals(sc.system, orbit)
    st.report["relation_residuals"] = {
        "kind": rel.kind,
        "residuals": [float(r) for r in rel.residuals],
        "max_residual": rel.max_residual,
    }


def _verify(sc, st) -> None:
    if st.orbit is None:
        return
    if st.bounds is None:
        reason = "permanence bounds unavailable: the root solve failed"
        _fail(st, "verification", "not_run", reason, f"not run ({reason})")
        return
    ver = verify_attractivity(
        sc.system,
        st.orbit,
        n_initials=sc.n_initials,
        steps=sc.steps,
        seed=sc.seed,
        tol=sc.verify_tol,
        burn_in=sc.burn_in,
        bounds=st.bounds,
    )
    st.report["verification"] = {
        "tol": ver.tol,
        "steps": ver.steps,
        "seed": ver.seed,
        "n_initials": sc.n_initials,
        "burn_in": ver.burn_in,
        "lower": ver.lower,
        "upper": ver.upper,
        "initials": [[a, b] for a, b in ver.initials],
        "deviations": [float(d) for d in ver.deviations],
        "max_deviation": ver.max_deviation,
        "passed": ver.passed,
        "containment_ok": ver.containment_ok,
    }
    if not ver.passed:
        st.failures.append(
            f"verification: max deviation {ver.max_deviation:.3e} > tol {ver.tol:g}"
        )
    # containment_ok is informational: the explicit interval can miss the
    # attractor for spread coefficients, so it does not gate the exit code.


def _simulate(sc, st) -> None:
    try:
        traj = simulate(sc.system, sc.x0, sc.xm1, sc.steps, stop_below=SIMULATE_FLOOR)
    except (TrajectoryOverflowError, ValueError) as exc:  # ValueError: underflow to 0
        _fail(st, "trajectory", "failed", str(exc))
        return
    traj.write_csv(_resolve(st.out_dir, sc.trajectory_csv_path))
    st.report["trajectory"] = {
        "status": "ok",
        "stored_steps": len(traj),
        "stopped_early": len(traj) < sc.steps,
        "csv": sc.trajectory_csv_path,
    }
    k = sc.system.period
    if len(traj) >= k:
        rs = residue_stats(traj, min(sc.burn_in, len(traj) - k))
        st.report["residue_stats"] = {
            "burn_in": rs.burn_in,
            "tail_length": rs.tail_length,
            "sup_est": [float(v) for v in rs.sup_est],
            "inf_est": [float(v) for v in rs.inf_est],
        }
    else:
        st.report["residue_stats"] = {
            "status": "unavailable",
            "reason": "trajectory stopped before covering one full period",
        }


# command: (help text, stages in run order)
_COMMANDS = {
    "analyze": ("classification, hypothesis checks, and permanence bounds", (_analyze,)),
    "simulate": ("trajectory CSV plus residue tail statistics", (_simulate,)),
    "orbit": ("analyze plus extraction of the periodic attractor", (_analyze, _orbit)),
    "verify": ("orbit plus randomized attractivity verification", (_analyze, _orbit, _verify)),
    "full": ("all of the above", (_analyze, _orbit, _verify, _simulate)),
}


def run(command: str, scenario_path, out_dir=".") -> int:
    """Execute one CLI command against a scenario file; returns the exit status."""
    if command not in _COMMANDS:
        raise ScenarioError(f"unknown command {command!r} (expected one of {list(_COMMANDS)})")
    stages = _COMMANDS[command][1]
    sc = load_scenario(scenario_path)
    env_seed = os.environ.get("PPLAB_SEED")
    if env_seed is not None:
        try:
            sc.seed = int(env_seed)
        except ValueError:
            raise ScenarioError(f"PPLAB_SEED must be an integer, got {env_seed!r}") from None
        if sc.seed < 0:
            raise ScenarioError(f"PPLAB_SEED must be >= 0, got {sc.seed}")
    if _simulate in stages and sc.trajectory_csv_path is None:  # simulate always writes one
        sc.trajectory_csv_path = "trajectory.csv"

    sections = {
        section: {row[0]: getattr(sc, row[0]) for row in rows}
        for section, rows in _SETTINGS.items()
    }
    report = {
        "tool": "pplab",
        "version": __version__,
        "command": command,
        "backend": kernels.BACKEND,
        "scenario": {
            "period": sc.system.period,
            "coefficients": [family_to_record(f) for f in sc.system.coefficients],
            "initial": sections.pop("initial"),
            "steps": sc.steps,
            "burn_in": sc.burn_in,
            **sections,
        },
    }
    st = SimpleNamespace(
        report=report, failures=[], out_dir=out_dir, cls=None, bounds=None, orbit=None
    )
    for stage in stages:
        stage(sc, st)

    report["status"] = {"ok": not st.failures, "failures": st.failures}
    report_file = _resolve(out_dir, sc.report_path)
    with open(report_file, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    state = "ok" if not st.failures else "checks failed"
    print(f"pplab {command}: wrote {report_file} ({state})")
    return 0 if not st.failures else 2


class _Parser(argparse.ArgumentParser):
    # Usage errors must exit 1 (argparse defaults to 2, which is reserved
    # here for failed checks).
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pplab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (help_text, _) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--scenario", required=True, help="path to the scenario JSON file")
        sp.add_argument(
            "--out", default=".", help="directory for emitted files (default: current directory)"
        )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 1
    try:
        return run(args.command, args.scenario, args.out)
    except (ScenarioError, OSError) as exc:
        print(f"pplab: error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
