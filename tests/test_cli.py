import json
import os

import pytest

from pplab import kernels
from pplab.cli import ScenarioError, load_scenario, main, run
from pplab.kernels import _fallback

SCENARIO_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scenarios")
SHIPPED_SCENARIOS = sorted(f for f in os.listdir(SCENARIO_DIR) if f.endswith(".json"))


def write_scenario(path, **overrides):
    scenario = {
        "period": 2,
        "coefficients": [
            {"family": "pielou", "beta": 0.5},
            {"family": "pielou", "beta": 3.0},
        ],
        "initial": {"x0": 1.0, "xm1": 1.0},
        "steps": 4000,
        "verify": {"n_initials": 4, "seed": 0},
    }
    scenario.update(overrides)
    path.write_text(json.dumps(scenario))
    return path


@pytest.fixture
def scenario_file(tmp_path):
    return write_scenario(tmp_path / "scenario.json")


@pytest.fixture(autouse=True)
def _no_env_seed(monkeypatch):
    monkeypatch.delenv("PPLAB_SEED", raising=False)


def read_report(out_dir, name="report.json"):
    with open(out_dir / name, "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestCommands:
    def test_full_on_periodic_system(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        assert run("full", scenario_file, out) == 0
        report = read_report(out)
        assert report["command"] == "full"
        assert report["classification"]["regime"] == "periodic_attractive"
        assert report["classification"]["product_at_zero"] == 1.5
        assert report["hypotheses"]["all_ok"] is True
        assert report["orbit"]["status"] == "ok"
        assert report["verification"]["passed"] is True
        assert report["status"]["ok"] is True
        assert (out / "trajectory.csv").exists()

    def test_analyze_boundary_zero_attractive(self, tmp_path):
        scenario = write_scenario(
            tmp_path / "s.json",
            coefficients=[
                {"family": "pielou", "beta": 0.5},
                {"family": "pielou", "beta": 2.0},
            ],
        )
        out = tmp_path / "out"
        assert run("analyze", scenario, out) == 0
        report = read_report(out)
        assert report["classification"]["regime"] == "zero_attractive"
        assert report["classification"]["product_at_zero"] == 1.0
        assert "permanence" not in report
        assert "orbit" not in report

    def test_orbit_on_zero_attractive_fails_checks(self, tmp_path):
        scenario = write_scenario(
            tmp_path / "s.json",
            coefficients=[
                {"family": "pielou", "beta": 0.5},
                {"family": "pielou", "beta": 1.5},
            ],
        )
        out = tmp_path / "out"
        assert run("orbit", scenario, out) == 2
        report = read_report(out)
        assert report["orbit"]["status"] == "not_applicable"
        assert report["status"]["ok"] is False
        assert any("not applicable" in f for f in report["status"]["failures"])

    def test_verify_deviation_failure_exits_2(self, scenario_file, tmp_path):
        scenario = write_scenario(
            tmp_path / "tight.json",
            tolerances={"verify_tol": 1e-300},
        )
        out = tmp_path / "out"
        assert run("verify", scenario, out) == 2
        report = read_report(out)
        assert report["verification"]["passed"] is False

    def test_unattainable_root_tol_fails_permanence(self, tmp_path):
        # no double meets |product(root) - 1| <= 1e-18, so the root solve
        # gives up; the report records that instead of a traceback
        scenario = write_scenario(tmp_path / "s.json", tolerances={"root_tol": 1e-18})
        out = tmp_path / "out"
        assert run("analyze", scenario, out) == 2
        report = read_report(out)
        assert report["permanence"]["status"] == "failed"
        assert "tol=1e-18" in report["permanence"]["reason"]
        assert report["status"]["failures"] == [f"permanence: {report['permanence']['reason']}"]
        # verification samples from the permanence bounds, so it does not run
        # on bounds solved at some other tolerance
        out = tmp_path / "verify"
        assert run("verify", scenario, out) == 2
        report = read_report(out)
        assert report["permanence"]["status"] == "failed"
        assert report["orbit"]["status"] == "ok"
        assert report["verification"]["status"] == "not_run"
        assert "passed" not in report["verification"]
        assert report["status"]["failures"] == [
            f"permanence: {report['permanence']['reason']}",
            f"verification: not run ({report['verification']['reason']})",
        ]

    def test_simulate_writes_csv_and_stats(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        assert run("simulate", scenario_file, out) == 0
        report = read_report(out)
        assert report["trajectory"]["status"] == "ok"
        assert report["trajectory"]["stored_steps"] == 4000
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "n,x"
        assert len(lines) == 4001
        assert report["residue_stats"]["tail_length"] > 0
        assert "classification" not in report

    def test_rational_scenario(self, tmp_path):
        scenario = write_scenario(
            tmp_path / "r.json",
            coefficients=[
                {"family": "rational", "beta": 0.8, "alpha1": 1.0, "alpha2": 0.5},
                {"family": "rational", "beta": 2.0, "alpha1": 1.0, "alpha2": 0.5},
            ],
        )
        out = tmp_path / "out"
        assert run("analyze", scenario, out) == 0
        report = read_report(out)
        assert report["classification"]["regime"] == "periodic_attractive"
        assert report["classification"]["product_limit"] == pytest.approx(1.6 / 9.0, abs=1e-15)

    def test_analyze_out_of_theory(self, tmp_path):
        scenario = write_scenario(
            tmp_path / "o.json",
            period=1,
            coefficients=[{"family": "rational", "beta": 2.0, "alpha1": 1.0, "alpha2": 2.0}],
        )
        out = tmp_path / "out"
        assert run("analyze", scenario, out) == 0
        report = read_report(out)
        assert report["classification"]["regime"] == "out_of_theory"
        assert "permanence" not in report

    def test_full_on_out_of_theory_surfaces_overflow(self, tmp_path):
        # unbounded regime: orbit is inapplicable and the trajectory blows
        # past the overflow guard.  f(x) rounds to 0 for the second system,
        # so its trajectory underflows to zero at the first step.  Both are
        # structured report entries, and either one alone gives exit 2.
        rational = {"family": "rational", "beta": 2.0, "alpha1": 1.0, "alpha2": 2.0}
        beverton = {"family": "beverton_holt", "lambda": 1e300, "capacity": 1e-300}
        cases = [
            (rational, 20_000, "not_applicable", "overflow"),
            (beverton, 100, "failed", "underflow"),
        ]
        for i, (record, steps, orbit_status, guard) in enumerate(cases):
            scenario = write_scenario(
                tmp_path / f"o{i}.json", period=1, coefficients=[record], steps=steps
            )
            out = tmp_path / f"out{i}"
            assert run("full", scenario, out) == 2
            report = read_report(out)
            assert report["orbit"]["status"] == orbit_status
            assert report["trajectory"]["status"] == "failed"
            assert guard in report["trajectory"]["reason"]
            assert report["status"]["failures"][-1] == f"trajectory: {report['trajectory']['reason']}"
            assert report["status"]["ok"] is False
            assert run("simulate", scenario, tmp_path / f"sim{i}") == 2

    def test_simulate_stops_early_on_hard_decay(self, tmp_path):
        scenario = write_scenario(
            tmp_path / "d.json",
            coefficients=[
                {"family": "pielou", "beta": 0.01},
                {"family": "pielou", "beta": 0.02},
            ],
        )
        out = tmp_path / "out"
        assert run("simulate", scenario, out) == 0
        report = read_report(out)
        assert report["trajectory"]["stopped_early"] is True
        assert report["trajectory"]["stored_steps"] < 4000
        assert report["residue_stats"]["tail_length"] > 0

    @pytest.mark.parametrize(
        "command, periodic, sections",
        [
            ("analyze", True, "classification hypotheses permanence"),
            ("simulate", True, "trajectory residue_stats"),
            ("orbit", True, "classification hypotheses permanence orbit relation_residuals"),
            ("verify", True, "classification hypotheses permanence orbit relation_residuals verification"),
            (
                "full",
                True,
                "classification hypotheses permanence orbit relation_residuals verification"
                " trajectory residue_stats",
            ),
            ("analyze", False, "classification hypotheses"),
            ("simulate", False, "trajectory residue_stats"),
            ("orbit", False, "classification hypotheses orbit"),
            ("verify", False, "classification hypotheses orbit"),
            ("full", False, "classification hypotheses orbit trajectory residue_stats"),
        ],
    )
    def test_report_section_order(self, scenario_file, tmp_path, command, periodic, sections):
        scenario = scenario_file
        if not periodic:  # zero attractive: beta product 0.75
            scenario = write_scenario(
                tmp_path / "z.json",
                coefficients=[{"family": "pielou", "beta": 0.5}, {"family": "pielou", "beta": 1.5}],
            )
        out = tmp_path / "out"
        run(command, scenario, out)
        report = read_report(out)
        assert list(report) == [
            "tool", "version", "command", "backend", "scenario", *sections.split(), "status"
        ]
        assert list(report["scenario"]) == [
            "period", "coefficients", "initial", "steps", "burn_in", "tolerances", "verify", "outputs"
        ]


class TestDeterminismAndRoundTrip:
    def test_full_runs_are_byte_identical(self, scenario_file, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run("full", scenario_file, out_a) == 0
        assert run("full", scenario_file, out_b) == 0
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
        assert (out_a / "trajectory.csv").read_bytes() == (out_b / "trajectory.csv").read_bytes()

    @pytest.mark.parametrize("name", SHIPPED_SCENARIOS)
    def test_shipped_full_runs_agree_across_backends(self, name, compiled, tmp_path, monkeypatch):
        scenario = os.path.join(SCENARIO_DIR, name)
        outputs = []
        for backend, simulate_packed in (("python", _fallback.simulate_packed), ("compiled", compiled)):
            monkeypatch.setattr(kernels, "simulate_packed", simulate_packed)
            monkeypatch.setattr(kernels, "BACKEND", backend)
            out = tmp_path / backend
            code = run("full", scenario, out)
            report = (out / "report.json").read_bytes().replace(f'"backend": "{backend}"'.encode(), b"")
            outputs.append((code, report, (out / "trajectory.csv").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_report_round_trip(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        run("full", scenario_file, out)
        report = read_report(out)
        assert json.loads(json.dumps(report)) == report

    def test_env_seed_override(self, scenario_file, tmp_path, monkeypatch):
        out = tmp_path / "out"
        monkeypatch.setenv("PPLAB_SEED", "7")
        run("verify", scenario_file, out)
        report = read_report(out)
        assert report["verification"]["seed"] == 7
        assert report["scenario"]["verify"]["seed"] == 7

    @pytest.mark.parametrize("env_seed", ["lucky", "-1"])
    def test_bad_env_seed_is_input_error(self, scenario_file, tmp_path, monkeypatch, env_seed):
        monkeypatch.setenv("PPLAB_SEED", env_seed)
        with pytest.raises(ScenarioError):
            run("analyze", scenario_file, tmp_path)

    def test_defaults_are_materialized(self, tmp_path):
        path = tmp_path / "minimal.json"
        path.write_text(
            json.dumps(
                {
                    "period": 1,
                    "coefficients": [{"family": "pielou", "beta": 2.0}],
                }
            )
        )
        scenario = load_scenario(path)
        assert scenario.steps == 20_000
        assert scenario.burn_in == 1_000
        assert scenario.root_tol == 1e-12
        assert scenario.orbit_tol == 1e-10
        assert scenario.verify_tol == 1e-8
        assert scenario.n_initials == 32
        assert scenario.seed == 0
        assert scenario.report_path == "report.json"
        out = tmp_path / "out"
        assert run("analyze", path, out) == 0
        echo = read_report(out)["scenario"]
        assert echo["steps"] == 20_000
        assert echo["tolerances"]["root_tol"] == 1e-12


class TestScenarioValidation:
    def test_missing_file(self, tmp_path):
        assert main(["analyze", "--scenario", str(tmp_path / "nope.json")]) == 1

    def test_invalid_json_reports_position(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"period": 2,,}')
        assert main(["analyze", "--scenario", str(path)]) == 1
        err = capsys.readouterr().err
        assert "line 1" in err

    def test_period_mismatch(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(
            json.dumps({"period": 3, "coefficients": [{"family": "pielou", "beta": 2.0}]})
        )
        with pytest.raises(ScenarioError, match="period is 3"):
            load_scenario(path)

    def test_unknown_top_level_key(self, tmp_path):
        path = write_scenario(tmp_path / "s.json", extra_knob=1)
        with pytest.raises(ScenarioError, match="unknown scenario keys"):
            load_scenario(path)

    def test_bad_family_record_names_index(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(
            json.dumps(
                {
                    "period": 2,
                    "coefficients": [
                        {"family": "pielou", "beta": 2.0},
                        {"family": "pielou", "beta": -1.0},
                    ],
                }
            )
        )
        with pytest.raises(ScenarioError, match=r"coefficients\[1\]"):
            load_scenario(path)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"steps": 1},  # below the period
            {"initial": {"x0": 0.0}},
            {"initial": {"xm1": -1.0}},
            {"tolerances": {"root_tol": 0.0}},
            {"verify": {"n_initials": 0}},
            {"outputs": {"report_path": ""}},
            {"verify": {"seed": -3}},
            {"tolerances": {"root_tol": float("inf")}},
            {"tolerances": {"orbit_tol": float("inf")}},
            {"tolerances": {"verify_tol": float("inf")}},
            {"initial": []},  # a section that is not an object
            {"verify": {"typo": 1}},
            {"initial": {"x0": "one"}},
            {"verify": {"n_initials": 2.5}},
            {"outputs": {"trajectory_csv_path": ""}},
            {"initial": {"x0": 10**400}},  # an integer no double can hold
            {"coefficients": [{"family": ["pielou"], "beta": 0.5}, {"family": "pielou", "beta": 3.0}]},
            {"coefficients": [{"family": "pielou", "beta": 10**400}, {"family": "pielou", "beta": 3.0}]},
            {"steps": 10**9 + 1},  # above the longest run a scenario may ask for
            {"steps": 10**30},
        ],
    )
    def test_field_validation(self, tmp_path, overrides):
        path = write_scenario(tmp_path / "s.json", **overrides)
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_usage_errors_exit_1(self, capsys):
        assert main([]) == 1
        assert main(["analyze"]) == 1
        assert main(["frobnicate", "--scenario", "x.json"]) == 1
        capsys.readouterr()  # swallow usage noise
