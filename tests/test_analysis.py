import math

import pytest
from hypothesis import assume, given, strategies as st

from pplab import (
    BevertonHolt,
    CoefficientFamily,
    GridSpec,
    NonConvergenceError,
    NoRootError,
    PeriodicSystem,
    Pielou,
    RationalSaturating,
    Regime,
    check_hypotheses,
    classify,
    permanence_bounds,
    product_at,
    product_at_zero,
    solve_product_root,
)

_param = st.floats(min_value=0.1, max_value=10.0, allow_nan=False, allow_infinity=False)
_lam = st.floats(min_value=1.1, max_value=10.0, allow_nan=False, allow_infinity=False)
_family = st.one_of(
    st.builds(Pielou, beta=_param),
    st.builds(BevertonHolt, lam=_lam, capacity=_param),
    st.builds(RationalSaturating, beta=_param, alpha1=_param, alpha2=_param),
)
_system = st.lists(_family, min_size=1, max_size=4).map(PeriodicSystem)


class TestProducts:
    def test_product_at_zero_k2(self, pielou_k2):
        assert product_at(pielou_k2, 0.0) == 1.5

    def test_product_at_root_k1(self, pielou_k1):
        assert product_at(pielou_k1, 1.0) == 1.0

    def test_product_hand_evaluated(self, pielou_k2):
        # oracle: evaluate the two factors by hand at x = 0.5
        expected = (0.5 / 1.5) * (3.0 / 1.5)
        assert product_at(pielou_k2, 0.5) == pytest.approx(expected, abs=1e-15)

    @given(_system, st.floats(min_value=0.0, max_value=20.0), st.floats(min_value=0.01, max_value=20.0))
    def test_product_strictly_decreasing(self, system, a, gap):
        assert product_at(system, a) > product_at(system, a + gap)

    @given(_system)
    def test_product_at_zero_matches_closed_form(self, system):
        assert product_at(system, 0.0) == product_at_zero(system)


class TestClassify:
    def test_periodic_attractive(self, pielou_k2):
        cls = classify(pielou_k2)
        assert cls.regime is Regime.PERIODIC_ATTRACTIVE
        assert cls.product_at_zero == 1.5
        assert cls.product_limit == 0.0

    def test_boundary_tie_is_zero_attractive(self, pielou_k2_boundary):
        cls = classify(pielou_k2_boundary)
        assert cls.regime is Regime.ZERO_ATTRACTIVE
        assert cls.product_at_zero == 1.0

    def test_out_of_theory(self, rational_out_of_theory):
        cls = classify(rational_out_of_theory)
        assert cls.regime is Regime.OUT_OF_THEORY
        assert cls.product_at_zero == 2.0
        assert cls.product_limit == pytest.approx(4.0 / 3.0, abs=1e-15)

    @given(_system)
    def test_consistent_with_brute_force_products(self, system):
        cls = classify(system)
        p0 = product_at(system, 0.0)
        p_far = product_at(system, 1e9)
        assert p0 == cls.product_at_zero
        # per family, evaluating six decades out is a 1e-6-accurate limit proxy
        # (the proxy error of the full product is amplified by the other
        # factors, hence the wider guard band on the regime comparison below)
        for fam in system.coefficients:
            assert 0.0 <= fam.value(1e9) - fam.limit_at_infinity() <= 1e-6
        assert p_far >= cls.product_limit
        if abs(p0 - 1.0) > 1e-9 and abs(p_far - 1.0) > 1e-3:
            if p0 <= 1.0:
                brute = Regime.ZERO_ATTRACTIVE
            elif p_far < 1.0:
                brute = Regime.PERIODIC_ATTRACTIVE
            else:
                brute = Regime.OUT_OF_THEORY
            assert cls.regime is brute

    @given(st.lists(st.floats(min_value=0.05, max_value=20.0), min_size=1, max_size=5))
    def test_all_pielou_threshold(self, betas):
        system = PeriodicSystem([Pielou(b) for b in betas])
        cls = classify(system)
        assert cls.product_limit == 0.0
        expected = Regime.PERIODIC_ATTRACTIVE if math.prod(betas) > 1.0 else Regime.ZERO_ATTRACTIVE
        assert cls.regime is expected


class _Wiggle(CoefficientFamily):
    # adversarial custom family: positive but not monotone
    def value(self, x):
        return 1.0 + math.sin(x)

    def at_zero(self):
        return 1.0

    def limit_at_infinity(self):
        return 0.0


class TestHypothesisChecks:
    def test_builtins_pass(self, pielou_k1, beverton_k1):
        grid = GridSpec(x_max=100.0, points=64)
        for system in (pielou_k1, beverton_k1):
            report = check_hypotheses(system, grid)
            assert report.all_ok
            assert report.worst_violation == 0.0

    def test_grid_shape(self, pielou_k1):
        report = check_hypotheses(pielou_k1, GridSpec(x_max=50.0, points=16))
        assert report.grid[0] == 0.0
        assert len(report.grid) == 17
        assert report.grid[-1] == 50.0

    def test_adversarial_family_flagged(self):
        system = PeriodicSystem([Pielou(2.0), _Wiggle()])
        report = check_hypotheses(system, GridSpec(x_max=100.0, points=64))
        assert report.decreasing_ok == (True, False)
        assert not report.all_ok
        assert report.worst_violation < 0.0

    def test_grid_spec_validation(self):
        with pytest.raises(ValueError):
            GridSpec(x_max=0.0)
        with pytest.raises(ValueError):
            GridSpec(points=1)


class TestRootSolve:
    def test_k1_closed_form(self, pielou_k1):
        assert solve_product_root(pielou_k1, tol=1e-12) == pytest.approx(1.0, abs=1e-12)

    def test_beverton_capacity_is_root(self, beverton_k1):
        assert solve_product_root(beverton_k1, tol=1e-12) == 5.0

    def test_k2_closed_form(self, pielou_k2):
        root = solve_product_root(pielou_k2, tol=1e-12)
        assert root == pytest.approx(math.sqrt(1.5) - 1.0, abs=1e-10)

    @given(_system)
    def test_root_certificate(self, system):
        assume(classify(system).is_periodic_attractive)
        root = solve_product_root(system, tol=1e-12)
        assert abs(product_at(system, root) - 1.0) <= 1e-12

    def test_no_root_outside_regime(self, pielou_k2_boundary, rational_out_of_theory):
        for system in (pielou_k2_boundary, rational_out_of_theory):
            with pytest.raises(NoRootError):
                solve_product_root(system)

    def test_tol_validation(self, pielou_k1):
        with pytest.raises(ValueError):
            solve_product_root(pielou_k1, tol=0.0)

    def test_unreachable_certificate_reported(self, pielou_k2):
        with pytest.raises(NonConvergenceError):
            solve_product_root(pielou_k2, tol=1e-320)


class TestPermanenceBounds:
    def test_k1_hand_values(self, pielou_k1):
        b = permanence_bounds(pielou_k1)
        assert b.root == pytest.approx(1.0, abs=1e-12)
        assert b.upper == pytest.approx(2.0, abs=1e-11)
        assert b.lower == pytest.approx(2.0 / 3.0, abs=1e-11)

    def test_beverton_hand_values(self, beverton_k1):
        b = permanence_bounds(beverton_k1)
        assert b.root == 5.0
        assert b.upper == 15.0
        assert b.lower == pytest.approx(5.0 * 3.0 / 7.0, abs=1e-12)

    def test_requires_periodic_regime(self, pielou_k2_boundary):
        with pytest.raises(NoRootError):
            permanence_bounds(pielou_k2_boundary)

    @given(_system)
    def test_ordering(self, system):
        assume(classify(system).is_periodic_attractive)
        b = permanence_bounds(system)
        assert 0.0 < b.lower <= b.root <= b.upper < math.inf
        assert b.upper == pytest.approx(b.root * product_at(system, 0.0), rel=1e-15)
