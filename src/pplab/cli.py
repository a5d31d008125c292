"""Scenario-driven command-line front end.

Usage: ``pplab {analyze,simulate,orbit,verify,full} --scenario FILE [--out DIR]``

A scenario is a JSON object describing the system and run parameters; every
omitted setting gets a documented default, and the effective values are
echoed into the emitted report so runs are self-describing.  Reports are
deterministic: the same scenario and seed produce byte-identical files
(the env var ``PPLAB_SEED`` overrides the scenario seed).

Exit status: 0 when all requested checks pass, 2 when a check fails (e.g.
orbit requested outside the attracting regime, or verification deviation
above tolerance), 1 on input or usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

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

COMMANDS = {
    "analyze": "classification, hypothesis checks, and permanence bounds",
    "simulate": "trajectory CSV plus residue tail statistics",
    "orbit": "analyze plus extraction of the periodic attractor",
    "verify": "orbit plus randomized attractivity verification",
    "full": "all of the above",
}

DEFAULT_TOLERANCES = {"root_tol": 1e-12, "orbit_tol": 1e-10, "verify_tol": 1e-8}
DEFAULT_VERIFY = {"n_initials": 32, "seed": 0}
DEFAULT_REPORT_PATH = "report.json"
DEFAULT_TRAJECTORY_CSV = "trajectory.csv"

# Decaying runs stop just above the smallest normal doubles so every stored
# trajectory value stays strictly positive.
SIMULATE_FLOOR = 1e-300


class ScenarioError(ValueError):
    """Scenario file missing, malformed, or failing schema validation."""


def _number(obj: dict, key: str, where: str, default=None):
    if key not in obj:
        return default
    raw = obj[key]
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ScenarioError(f"{where}.{key} must be a number, got {raw!r}")
    return float(raw)


def _integer(obj: dict, key: str, where: str, default=None):
    if key not in obj:
        return default
    raw = obj[key]
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ScenarioError(f"{where}.{key} must be an integer, got {raw!r}")
    return raw


def _section(data: dict, key: str, allowed: tuple[str, ...]) -> dict:
    raw = data.get(key, {})
    if not isinstance(raw, dict):
        raise ScenarioError(f"{key} must be an object, got {raw!r}")
    unknown = set(raw) - set(allowed)
    if unknown:
        raise ScenarioError(f"{key} has unknown keys {sorted(unknown)} (allowed: {list(allowed)})")
    return raw


@dataclass
class Scenario:
    system: PeriodicSystem
    x0: float
    xm1: float
    steps: int
    burn_in: int
    root_tol: float
    orbit_tol: float
    verify_tol: float
    n_initials: int
    seed: int
    report_path: str
    trajectory_csv_path: str | None


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file, materializing all defaults."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(
                f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from exc
    if not isinstance(data, dict):
        raise ScenarioError(f"{path}: scenario must be a JSON object")
    allowed_top = ("period", "coefficients", "initial", "steps", "tolerances", "verify", "outputs")
    unknown = set(data) - set(allowed_top)
    if unknown:
        raise ScenarioError(f"unknown scenario keys {sorted(unknown)} (allowed: {list(allowed_top)})")
    for required in ("period", "coefficients"):
        if required not in data:
            raise ScenarioError(f"missing required scenario key {required!r}")

    period = _integer(data, "period", "scenario")
    if period is None or period < 1:
        raise ScenarioError(f"period must be an integer >= 1, got {data['period']!r}")
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
    system = PeriodicSystem(families)

    initial = _section(data, "initial", ("x0", "xm1"))
    x0 = _number(initial, "x0", "initial", 1.0)
    xm1 = _number(initial, "xm1", "initial", 1.0)
    if not (math.isfinite(x0) and x0 > 0.0):
        raise ScenarioError(f"initial.x0 must be > 0, got {x0!r}")
    if not (math.isfinite(xm1) and xm1 >= 0.0):
        raise ScenarioError(f"initial.xm1 must be >= 0, got {xm1!r}")

    steps = _integer(data, "steps", "scenario", 20_000 * period)
    if steps < period:
        raise ScenarioError(f"steps must be >= period ({period}), got {steps}")

    tolerances = _section(data, "tolerances", tuple(DEFAULT_TOLERANCES))
    tols = {}
    for name, fallback in DEFAULT_TOLERANCES.items():
        value = _number(tolerances, name, "tolerances", fallback)
        if not (value > 0.0):
            raise ScenarioError(f"tolerances.{name} must be > 0, got {value!r}")
        tols[name] = value

    verify = _section(data, "verify", tuple(DEFAULT_VERIFY))
    n_initials = _integer(verify, "n_initials", "verify", DEFAULT_VERIFY["n_initials"])
    if n_initials < 1:
        raise ScenarioError(f"verify.n_initials must be >= 1, got {n_initials}")
    seed = _integer(verify, "seed", "verify", DEFAULT_VERIFY["seed"])
    if seed < 0:
        raise ScenarioError(f"verify.seed must be >= 0, got {seed}")

    outputs = _section(data, "outputs", ("report_path", "trajectory_csv_path"))
    report_path = outputs.get("report_path", DEFAULT_REPORT_PATH)
    if not isinstance(report_path, str) or not report_path:
        raise ScenarioError(f"outputs.report_path must be a non-empty string, got {report_path!r}")
    csv_path = outputs.get("trajectory_csv_path")
    if csv_path is not None and (not isinstance(csv_path, str) or not csv_path):
        raise ScenarioError(
            f"outputs.trajectory_csv_path must be a non-empty string or omitted, got {csv_path!r}"
        )

    return Scenario(
        system=system,
        x0=x0,
        xm1=xm1,
        steps=steps,
        burn_in=min(default_burn_in(period), steps - period),
        root_tol=tols["root_tol"],
        orbit_tol=tols["orbit_tol"],
        verify_tol=tols["verify_tol"],
        n_initials=n_initials,
        seed=seed,
        report_path=report_path,
        trajectory_csv_path=csv_path,
    )


def _resolve(out_dir, rel_path) -> str:
    path = rel_path if os.path.isabs(rel_path) else os.path.join(out_dir, rel_path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return path


def _scenario_echo(sc: Scenario, seed: int, command: str) -> dict:
    csv_path = sc.trajectory_csv_path
    if command in ("simulate", "full") and csv_path is None:
        csv_path = DEFAULT_TRAJECTORY_CSV
    return {
        "period": sc.system.period,
        "coefficients": [family_to_record(f) for f in sc.system.coefficients],
        "initial": {"x0": sc.x0, "xm1": sc.xm1},
        "steps": sc.steps,
        "burn_in": sc.burn_in,
        "tolerances": {
            "root_tol": sc.root_tol,
            "orbit_tol": sc.orbit_tol,
            "verify_tol": sc.verify_tol,
        },
        "verify": {"n_initials": sc.n_initials, "seed": seed},
        "outputs": {"report_path": sc.report_path, "trajectory_csv_path": csv_path},
    }


def run(command: str, scenario_path, out_dir=".") -> int:
    """Execute one CLI command against a scenario file; returns the exit status."""
    if command not in COMMANDS:
        raise ScenarioError(f"unknown command {command!r} (expected one of {list(COMMANDS)})")
    sc = load_scenario(scenario_path)
    seed = sc.seed
    env_seed = os.environ.get("PPLAB_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise ScenarioError(f"PPLAB_SEED must be an integer, got {env_seed!r}") from None
        if seed < 0:
            raise ScenarioError(f"PPLAB_SEED must be >= 0, got {seed}")

    failures: list[str] = []
    report: dict = {
        "tool": "pplab",
        "version": __version__,
        "command": command,
        "backend": kernels.BACKEND,
        "scenario": _scenario_echo(sc, seed, command),
    }
    system = sc.system
    k = system.period
    cls = classify(system)
    bounds = None
    permanence = None

    if command in ("analyze", "orbit", "verify", "full"):
        report["classification"] = {
            "regime": cls.regime.value,
            "product_at_zero": cls.product_at_zero,
            "product_limit": cls.product_limit,
        }
        if cls.is_periodic_attractive:
            try:
                bounds = permanence_bounds(system, sc.root_tol)
            except NonConvergenceError as exc:
                permanence = {"status": "failed", "reason": str(exc)}
            else:
                permanence = {"root": bounds.root, "lower": bounds.lower, "upper": bounds.upper}
        grid = GridSpec(x_max=10.0 * bounds.upper if bounds is not None else 100.0)
        hyp = check_hypotheses(system, grid)
        report["hypotheses"] = {
            "x_max": grid.x_max,
            "points": grid.points,
            "margin": grid.margin,
            "decreasing_ok": list(hyp.decreasing_ok),
            "xf_increasing_ok": list(hyp.xf_increasing_ok),
            "worst_violation": hyp.worst_violation,
            "all_ok": hyp.all_ok,
        }
        if not hyp.all_ok:
            failures.append("hypotheses: monotonicity check failed on the grid")
        if permanence is not None:
            report["permanence"] = permanence
            if bounds is None:
                failures.append(f"permanence: {permanence['reason']}")

    orbit = None
    if command in ("orbit", "verify", "full"):
        if not cls.is_periodic_attractive:
            reason = f"regime is {cls.regime.value}"
            report["orbit"] = {"status": "not_applicable", "reason": reason}
            failures.append(f"orbit: not applicable ({reason})")
        else:
            warm_start = None if bounds is None else (bounds.root, bounds.root)
            try:
                orbit = extract_orbit(system, refine_tol=sc.orbit_tol, warm_start=warm_start)
            except NonConvergenceError as exc:
                report["orbit"] = {"status": "failed", "reason": str(exc)}
                failures.append(f"orbit: {exc}")
            else:
                report["orbit"] = {
                    "status": "ok",
                    "values": [float(v) for v in orbit.values],
                    "closure_residual": orbit.closure_residual,
                    "product_residual": orbit_product_residual(system, orbit.values),
                }
                rel = orbit_relation_residuals(system, orbit)
                report["relation_residuals"] = {
                    "kind": rel.kind,
                    "residuals": [float(r) for r in rel.residuals],
                    "max_residual": rel.max_residual,
                }

    if command in ("verify", "full") and orbit is not None and bounds is None:
        reason = "permanence bounds unavailable: the root solve failed"
        report["verification"] = {"status": "not_run", "reason": reason}
        failures.append(f"verification: not run ({reason})")
    elif command in ("verify", "full") and orbit is not None:
        ver = verify_attractivity(
            system,
            orbit,
            n_initials=sc.n_initials,
            steps=sc.steps,
            seed=seed,
            tol=sc.verify_tol,
            burn_in=sc.burn_in,
            bounds=bounds,
        )
        report["verification"] = {
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
            failures.append(
                f"verification: max deviation {ver.max_deviation:.3e} > tol {ver.tol:g}"
            )
        # containment_ok is informational: the explicit interval can miss the
        # attractor for spread coefficients, so it does not gate the exit code.

    if command in ("simulate", "full"):
        csv_rel = sc.trajectory_csv_path or DEFAULT_TRAJECTORY_CSV
        try:
            traj = simulate(system, sc.x0, sc.xm1, sc.steps, stop_below=SIMULATE_FLOOR)
        except TrajectoryOverflowError as exc:
            report["trajectory"] = {"status": "failed", "reason": str(exc)}
            failures.append(f"trajectory: {exc}")
        else:
            traj.write_csv(_resolve(out_dir, csv_rel))
            report["trajectory"] = {
                "status": "ok",
                "stored_steps": len(traj),
                "stopped_early": len(traj) < sc.steps,
                "csv": csv_rel,
            }
            if len(traj) >= k:
                st = residue_stats(traj, min(sc.burn_in, len(traj) - k))
                report["residue_stats"] = {
                    "burn_in": st.burn_in,
                    "tail_length": st.tail_length,
                    "sup_est": [float(v) for v in st.sup_est],
                    "inf_est": [float(v) for v in st.inf_est],
                }
            else:
                report["residue_stats"] = {
                    "status": "unavailable",
                    "reason": "trajectory stopped before covering one full period",
                }

    report["status"] = {"ok": not failures, "failures": failures}
    report_file = _resolve(out_dir, sc.report_path)
    with open(report_file, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    state = "ok" if not failures else "checks failed"
    print(f"pplab {command}: wrote {report_file} ({state})")
    return 0 if not failures else 2


class _Parser(argparse.ArgumentParser):
    # Usage errors must exit 1 (argparse defaults to 2, which is reserved
    # here for failed checks).
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pplab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, help_text in COMMANDS.items():
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
