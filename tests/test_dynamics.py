import math
import shutil
import sys

import numpy as np
import pytest

from pplab import (
    CoefficientFamily,
    NoOrbitError,
    PeriodicSystem,
    Pielou,
    TrajectoryOverflowError,
    extract_orbit,
    kernels,
    orbit_product_residual,
    orbit_relation_residuals,
    residue_stats,
    simulate,
    verify_attractivity,
)
from pplab.kernels import _fallback


class TestSimulate:
    def test_equilibrium_is_constant(self, pielou_k1):
        traj = simulate(pielou_k1, 1.0, 1.0, 100)
        assert np.all(traj.values == 1.0)

    def test_decaying_run(self):
        system = PeriodicSystem([Pielou(0.5)])
        traj = simulate(system, 1.0, 0.0, 200)
        assert traj.values[-1] < 1e-30
        assert np.all(traj.values[1:] < traj.values[:-1])

    def test_k2_subsequences_converge(self, pielou_k2):
        traj = simulate(pielou_k2, 1.0, 1.0, 10_000)
        v = traj.values
        # k-spaced differences die out for both residue classes
        assert abs(v[-1] - v[-3]) < 1e-12
        assert abs(v[-2] - v[-4]) < 1e-12

    def test_positivity(self, pielou_k2):
        traj = simulate(pielou_k2, 1e-6, 0.0, 5_000)
        assert np.all(traj.values > 0.0)

    def test_validation(self, pielou_k1):
        with pytest.raises(ValueError):
            simulate(pielou_k1, 0.0, 1.0, 10)  # x0 must be positive
        with pytest.raises(ValueError):
            simulate(pielou_k1, 1.0, -0.5, 10)
        with pytest.raises(ValueError):
            simulate(pielou_k1, 1.0, 1.0, 0)
        simulate(pielou_k1, 1e-300, 1.0, 10)  # tiny but positive is allowed

    def test_overflow_guard(self):
        system = PeriodicSystem([Pielou(1e30)])
        with pytest.raises(TrajectoryOverflowError):
            simulate(system, 1e280, 0.0, 50)

    def test_underflow_without_floor_raises(self):
        system = PeriodicSystem([Pielou(1e-10)])
        with pytest.raises(ValueError, match="stop_below"):
            simulate(system, 1.0, 0.0, 100)

    def test_stop_below_ends_run_early(self):
        system = PeriodicSystem([Pielou(0.5)])
        traj = simulate(system, 1.0, 0.0, 10_000, stop_below=1e-12)
        assert len(traj) < 10_000
        assert traj.values[-1] < 1e-12
        assert np.all(traj.values > 0.0)

    def test_zero_case_k_spaced_decrease(self):
        system = PeriodicSystem([Pielou(0.4), Pielou(1.2), Pielou(1.9)])  # P0 = 0.912
        k = system.period
        traj = simulate(system, 2.0, 3.0, 50_000, stop_below=1e-12)
        v = traj.values
        assert np.all(v[k:] < v[:-k])

    def test_trajectory_helpers(self, pielou_k2):
        traj = simulate(pielou_k2, 1.0, 1.0, 10)
        assert len(traj) == 10
        assert traj.period == 2
        # index 0 uses slot 2: x[1] = 1 * 3 / (1 + 1), x[2] = x[1] * 0.5 / (1 + 1)
        assert traj.values[:2].tolist() == [1.5, 0.375]

    def test_write_csv(self, tmp_path, pielou_k2):
        traj = simulate(pielou_k2, 1.0, 1.0, 5)
        path = tmp_path / "traj.csv"
        traj.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "n,x"
        assert len(lines) == 6
        n, x = lines[1].split(",")
        assert n == "1"
        assert float(x) == traj.values[0]


class _PielouClone(CoefficientFamily):
    # same math as Pielou but invisible to the kernel packer
    def __init__(self, beta):
        self.beta = beta

    def value(self, x):
        return self.beta / (1.0 + x)

    def at_zero(self):
        return self.beta

    def limit_at_infinity(self):
        return 0.0


class TestGenericPath:
    def test_custom_family_matches_packed_path(self):
        packed = PeriodicSystem([Pielou(0.5), Pielou(3.0)])
        generic = PeriodicSystem([_PielouClone(0.5), _PielouClone(3.0)])
        a = simulate(packed, 1.0, 1.0, 2_000)
        b = simulate(generic, 1.0, 1.0, 2_000)
        assert np.array_equal(a.values, b.values)

    def test_custom_family_overflow(self):
        system = PeriodicSystem([_PielouClone(1e30)])
        with pytest.raises(TrajectoryOverflowError):
            simulate(system, 1e280, 0.0, 50)

    @pytest.mark.parametrize(
        "betas, x0, steps, floor, status",
        [
            ([1e30], 1e280, 50, 0.0, kernels.STATUS_OVERFLOW),
            ([1e-10], 1.0, 100, 0.0, kernels.STATUS_UNDERFLOW),
            ([0.5, 0.7], 1.0, 1000, 1e-6, kernels.STATUS_OK),
        ],
        ids=["overflow", "underflow", "stop_below"],
    )
    def test_iterate_guards_match_packed(self, request, betas, x0, steps, floor, status):
        factors = [_PielouClone(b).value for b in betas]
        values, s = kernels.iterate(factors, x0, 0.0, steps, floor, 1e300)
        assert s == status
        assert len(values) < steps
        packed = kernels.pack_system(PeriodicSystem([Pielou(b) for b in betas]))
        references = [_fallback.simulate_packed]
        if shutil.which("cc") is not None:
            references.append(request.getfixturevalue("compiled"))
        for reference in references:
            ref_values, ref_status = reference(*packed, x0, 0.0, steps, floor, 1e300)
            assert ref_status == s
            assert np.array_equal(ref_values, values)


class TestResidueStats:
    def test_constant_trajectory(self, pielou_k1):
        traj = simulate(pielou_k1, 1.0, 1.0, 100)
        st = residue_stats(traj, 10)
        assert st.sup_est[0] == 1.0
        assert st.inf_est[0] == 1.0
        assert st.tail_length == 90

    def test_converged_periodic_run_pinches(self, pielou_k2):
        traj = simulate(pielou_k2, 1.0, 1.0, 20_000)
        st = residue_stats(traj, 10_000)
        assert np.all(st.sup_est - st.inf_est <= 1e-8)
        assert np.all(st.inf_est <= st.sup_est)

    def test_zero_run_sup_decreases_with_burn_in(self):
        system = PeriodicSystem([Pielou(0.5)])
        traj = simulate(system, 1.0, 0.0, 200)
        st_a = residue_stats(traj, 20)
        st_b = residue_stats(traj, 80)
        assert st_b.sup_est[0] < st_a.sup_est[0]
        assert st_a.sup_est[0] <= traj.values[19]

    def test_collapse_with_growing_burn_in(self, pielou_k2):
        traj = simulate(pielou_k2, 5.0, 0.0, 4_000)
        gap = lambda b: (lambda s: np.max(s.sup_est - s.inf_est))(residue_stats(traj, b))
        assert gap(2_000) <= gap(200)

    def test_burn_in_validation(self, pielou_k1):
        traj = simulate(pielou_k1, 1.0, 1.0, 50)
        with pytest.raises(ValueError):
            residue_stats(traj, 50)
        with pytest.raises(ValueError):
            residue_stats(traj, -1)

    def test_matches_brute_force_k7(self):
        from pplab.dynamics import _tail_cycle

        system = PeriodicSystem([Pielou(b) for b in (0.6, 1.4, 2.2, 0.9, 1.7, 3.1, 0.8)])
        traj = simulate(system, 0.3, 2.0, 1_000)  # 1000 is not a multiple of k either
        burn_in = 53  # not a multiple of k
        st = residue_stats(traj, burn_in)
        last = _tail_cycle(traj)
        for h in range(1, 8):
            sel = [traj.values[n - 1] for n in range(burn_in + 1, len(traj) + 1) if (n - 1) % 7 + 1 == h]
            assert st.sup_est[h - 1] == max(sel)
            assert st.inf_est[h - 1] == min(sel)
            assert last[h - 1] == sel[-1]
        assert st.tail_length == len(traj) - burn_in

    def test_empty_residue_tail(self):
        system = PeriodicSystem([Pielou(1.0), Pielou(1.2), Pielou(1.3)])
        traj = simulate(system, 1.0, 1.0, 5)
        with pytest.raises(ValueError, match="no tail samples"):
            residue_stats(traj, 4)


class TestExtractOrbit:
    def test_k1_equilibrium(self, pielou_k1):
        orbit = extract_orbit(pielou_k1)
        assert orbit.values == pytest.approx([1.0], abs=1e-12)
        assert orbit.closure_residual <= 1e-12

    def test_beverton_capacity_equilibrium(self, beverton_k1):
        orbit = extract_orbit(beverton_k1)
        assert orbit.values == pytest.approx([5.0], abs=1e-9)

    def test_k2_against_brute_force(self, pielou_k2):
        orbit = extract_orbit(pielou_k2)
        traj = simulate(pielou_k2, 1.0, 1.0, 1_000_000)
        oracle = np.empty(2)
        for h in (1, 2):
            oracle[h - 1] = traj.values[h - 1 :: 2][-100:].mean()
        assert np.abs(orbit.values - oracle).max() <= 1e-8
        # the two closure equations, checked explicitly
        x1, x2 = orbit.values
        assert abs(x2 - x1 * pielou_k2.growth_factor(1, x2)) <= 1e-10
        assert abs(x1 - x2 * pielou_k2.growth_factor(2, x1)) <= 1e-10

    def test_orbit_product_identity(self, pielou_k2):
        orbit = extract_orbit(pielou_k2)
        assert orbit_product_residual(pielou_k2, orbit.values) <= 1e-12

    def test_warm_start_independence(self, pielou_k2):
        tol = 1e-10
        a = extract_orbit(pielou_k2, refine_tol=tol, warm_start=(0.05, 8.0))
        b = extract_orbit(pielou_k2, refine_tol=tol, warm_start=(6.0, 0.0))
        assert np.abs(a.values - b.values).max() <= 10 * tol

    def test_requires_periodic_regime(self, pielou_k2_boundary):
        with pytest.raises(NoOrbitError):
            extract_orbit(pielou_k2_boundary)

    def test_phase1_fallback_when_newton_fails(self, pielou_k2, monkeypatch):
        from pplab import dynamics

        monkeypatch.setattr(dynamics, "_newton_refine", lambda *a: None)
        # a long warm start already closes the cycle to tolerance
        orbit = dynamics.extract_orbit(pielou_k2, sim_steps=50_000, refine_tol=1e-10)
        assert orbit.closure_residual <= 1e-10

    def test_nonconvergence_when_both_phases_fail(self, pielou_k2, monkeypatch):
        from pplab import NonConvergenceError, dynamics

        monkeypatch.setattr(dynamics, "_newton_refine", lambda *a: None)
        with pytest.raises(NonConvergenceError):
            dynamics.extract_orbit(pielou_k2, sim_steps=30, refine_tol=1e-12)

    def test_validation(self, pielou_k2):
        with pytest.raises(ValueError):
            extract_orbit(pielou_k2, sim_steps=1)
        with pytest.raises(ValueError):
            extract_orbit(pielou_k2, refine_tol=0.0)


class TestRelationResiduals:
    def test_k2_pair_products(self, pielou_k2):
        orbit = extract_orbit(pielou_k2)
        rel = orbit_relation_residuals(pielou_k2, orbit)
        assert rel.kind == "pair_product"
        assert np.all(rel.residuals <= 1e-9)

    def test_k1_equilibrium_growth_factor_is_one(self, pielou_k1):
        orbit = extract_orbit(pielou_k1)
        rel = orbit_relation_residuals(pielou_k1, orbit)
        assert rel.kind == "two_step"
        assert rel.max_residual <= 1e-12
        assert abs(pielou_k1.growth_factor(1, orbit.values[0]) - 1.0) <= 1e-12

    def test_k3_two_step_relation(self):
        system = PeriodicSystem([Pielou(0.8), Pielou(1.5), Pielou(2.0)])
        orbit = extract_orbit(system)
        rel = orbit_relation_residuals(system, orbit)
        assert rel.kind == "two_step"
        assert np.all(rel.residuals <= 1e-9)

    def test_k4_pair_products(self):
        system = PeriodicSystem(
            [Pielou(1.2), Pielou(0.7), Pielou(2.5), Pielou(1.1)]
        )
        orbit = extract_orbit(system)
        rel = orbit_relation_residuals(system, orbit)
        assert rel.kind == "pair_product"
        assert np.all(rel.residuals <= 1e-9)

    def test_period_mismatch_rejected(self, pielou_k1, pielou_k2):
        orbit = extract_orbit(pielou_k1)
        with pytest.raises(ValueError):
            orbit_relation_residuals(pielou_k2, orbit)


class TestVerifyAttractivity:
    def test_k1_all_converge(self, pielou_k1):
        orbit = extract_orbit(pielou_k1)
        report = verify_attractivity(pielou_k1, orbit, n_initials=32, steps=5_000, seed=0, tol=1e-8)
        assert report.passed
        assert report.max_deviation <= 1e-8
        assert len(report.initials) == 33  # fixed boundary initial appended
        assert report.initials[-1][1] == 0.0
        assert report.containment_ok  # k=1: the interval provably brackets the root

    def test_k2_all_converge(self, pielou_k2):
        orbit = extract_orbit(pielou_k2)
        report = verify_attractivity(pielou_k2, orbit, n_initials=32, steps=20_000, seed=0, tol=1e-8)
        assert report.passed

    def test_rejects_zero_attractive(self, pielou_k2_boundary, pielou_k1):
        orbit = extract_orbit(pielou_k1)
        with pytest.raises(NoOrbitError):
            verify_attractivity(pielou_k2_boundary, orbit)

    def test_underflowed_lower_bound(self):
        # P0 = 1e20 spread over k = 20 slots: lower = root * product(upper)
        # underflows to 0.0, and sampling starts at the smallest normal double
        k = 20
        system = PeriodicSystem(
            [Pielou(math.exp(math.sin(2 * math.pi * n / k) + math.log(1e20) / k)) for n in range(k)]
        )
        orbit = extract_orbit(system)
        report = verify_attractivity(system, orbit, n_initials=4, steps=4_000, seed=0)
        assert report.lower == 0.0
        assert min(min(pair) for pair in report.initials[:-1]) >= 0.5 * sys.float_info.min
        assert report.passed

    def test_seed_determinism(self, pielou_k1):
        orbit = extract_orbit(pielou_k1)
        a = verify_attractivity(pielou_k1, orbit, n_initials=4, steps=3_000, seed=7)
        b = verify_attractivity(pielou_k1, orbit, n_initials=4, steps=3_000, seed=7)
        c = verify_attractivity(pielou_k1, orbit, n_initials=4, steps=3_000, seed=8)
        assert a.initials == b.initials
        assert np.array_equal(a.deviations, b.deviations)
        assert a.initials != c.initials

    def test_tail_containment_around_orbit(self, pielou_k2):
        # qualitative permanence: converged tails hug the attractor
        orbit = extract_orbit(pielou_k2)
        report = verify_attractivity(pielou_k2, orbit, n_initials=8, steps=20_000, seed=3)
        traj = simulate(pielou_k2, 9.0, 0.0, 20_000)
        tail = traj.values[report.burn_in:]
        assert tail.min() >= 0.5 * orbit.values.min()
        assert tail.max() <= 2.0 * orbit.values.max()

    def test_validation(self, pielou_k1):
        orbit = extract_orbit(pielou_k1)
        with pytest.raises(ValueError):
            verify_attractivity(pielou_k1, orbit, n_initials=0)
        with pytest.raises(ValueError):
            verify_attractivity(pielou_k1, orbit, steps=100, burn_in=100)
        with pytest.raises(ValueError):
            verify_attractivity(pielou_k1, orbit, tol=0.0)
