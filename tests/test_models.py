import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from pplab import (
    BevertonHolt,
    CoefficientFamily,
    PeriodicSystem,
    Pielou,
    RationalSaturating,
    family_from_record,
    family_to_record,
)

# Parameter ranges keep the monotonicity differences far above double rounding,
# so strict comparisons below are meaningful.
_param = st.floats(min_value=0.1, max_value=10.0, allow_nan=False, allow_infinity=False)
_lam = st.floats(min_value=1.1, max_value=10.0, allow_nan=False, allow_infinity=False)
_family = st.one_of(
    st.builds(Pielou, beta=_param),
    st.builds(BevertonHolt, lam=_lam, capacity=_param),
    st.builds(RationalSaturating, beta=_param, alpha1=_param, alpha2=_param),
)
_point = st.floats(min_value=0.0, max_value=20.0, allow_nan=False, allow_infinity=False)
_gap = st.floats(min_value=0.01, max_value=20.0, allow_nan=False, allow_infinity=False)


class TestEvaluation:
    def test_pielou_values(self):
        fam = Pielou(beta=2.0)
        assert fam.value(0.0) == 2.0
        assert fam.value(1.0) == 1.0

    def test_beverton_holt_unit_at_capacity(self):
        assert BevertonHolt(lam=3.0, capacity=5.0).value(5.0) == 1.0

    def test_rational_limit(self):
        assert RationalSaturating(beta=2.0, alpha1=1.0, alpha2=1.0).limit_at_infinity() == 1.0

    def test_limits_at_infinity(self):
        assert Pielou(beta=7.0).limit_at_infinity() == 0.0
        assert BevertonHolt(lam=2.0, capacity=10.0).limit_at_infinity() == 0.0
        assert RationalSaturating(beta=3.0, alpha1=2.0, alpha2=1.0).limit_at_infinity() == 1.0


class TestValidation:
    @pytest.mark.parametrize("beta", [0.0, -1.0, math.nan, math.inf])
    def test_pielou_rejects_bad_beta(self, beta):
        with pytest.raises(ValueError):
            Pielou(beta=beta)

    @pytest.mark.parametrize("lam", [1.0, 0.5, -2.0, math.nan])
    def test_beverton_holt_needs_lam_above_one(self, lam):
        with pytest.raises(ValueError):
            BevertonHolt(lam=lam, capacity=5.0)

    def test_beverton_holt_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            BevertonHolt(lam=2.0, capacity=0.0)

    @pytest.mark.parametrize("kwargs", [
        {"beta": 0.0, "alpha1": 1.0, "alpha2": 1.0},
        {"beta": 1.0, "alpha1": -1.0, "alpha2": 1.0},
        {"beta": 1.0, "alpha1": 1.0, "alpha2": 0.0},
    ])
    def test_rational_rejects_bad_params(self, kwargs):
        with pytest.raises(ValueError):
            RationalSaturating(**kwargs)

    @pytest.mark.parametrize("x", [-1.0, -1e-12, math.nan, math.inf])
    def test_negative_or_nonfinite_point_rejected(self, x):
        with pytest.raises(ValueError):
            Pielou(beta=2.0).value(x)

    def test_families_are_immutable(self):
        fam = Pielou(beta=2.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            fam.beta = 3.0

    def test_system_needs_at_least_one_family(self):
        with pytest.raises(ValueError):
            PeriodicSystem([])

    def test_system_rejects_non_family(self):
        with pytest.raises(TypeError):
            PeriodicSystem([Pielou(2.0), "not a family"])


class TestIndexing:
    def test_index_wraps_forward(self):
        system = PeriodicSystem([Pielou(0.5), Pielou(3.0)])
        assert system.growth_factor(3, 0.0) == 0.5

    def test_index_zero_wraps_to_last_slot(self):
        system = PeriodicSystem([Pielou(0.5), Pielou(3.0)])
        assert system.growth_factor(0, 0.0) == 3.0

    def test_negative_index(self):
        system = PeriodicSystem([Pielou(2.0)])
        assert system.growth_factor(-5, 1.0) == 1.0

    @given(_family, st.integers(min_value=-50, max_value=50), _point)
    def test_periodicity(self, fam, n, x):
        system = PeriodicSystem([fam, Pielou(1.0), Pielou(2.0)])
        assert system.growth_factor(n, x) == system.growth_factor(n + system.period, x)


class TestMonotonicity:
    @given(_family, _point, _gap)
    def test_strictly_decreasing(self, fam, a, gap):
        assert fam.value(a) > fam.value(a + gap)

    @given(_family, _point, _gap)
    def test_x_times_f_strictly_increasing(self, fam, a, gap):
        b = a + gap
        assert a * fam.value(a) < b * fam.value(b)

    def test_approaches_limit_from_above(self):
        for fam in (Pielou(2.0), BevertonHolt(3.0, 5.0), RationalSaturating(2.0, 1.0, 1.0)):
            lim = fam.limit_at_infinity()
            values = [fam.value(x) for x in (1.0, 1e2, 1e4, 1e6)]
            assert all(v > lim for v in values)
            assert values == sorted(values, reverse=True)
            # six decades out, almost all of the initial headroom is gone
            assert values[-1] - lim <= 1e-3 * (values[0] - lim)


class TestRecords:
    @pytest.mark.parametrize("fam", [
        Pielou(beta=2.0),
        BevertonHolt(lam=3.0, capacity=5.0),
        RationalSaturating(beta=2.0, alpha1=1.0, alpha2=1.0),
    ])
    def test_round_trip(self, fam):
        assert family_from_record(family_to_record(fam)) == fam

    def test_record_shapes(self):
        assert family_to_record(Pielou(2.0)) == {"family": "pielou", "beta": 2.0}
        assert family_to_record(BevertonHolt(3.0, 5.0)) == {
            "family": "beverton_holt",
            "lambda": 3.0,
            "capacity": 5.0,
        }

    def test_unknown_tag(self):
        with pytest.raises(ValueError, match="unknown family tag"):
            family_from_record({"family": "ricker", "r": 2.0})

    def test_missing_field(self):
        with pytest.raises(ValueError, match="missing"):
            family_from_record({"family": "beverton_holt", "lambda": 3.0})

    def test_unexpected_field(self):
        with pytest.raises(ValueError, match="unexpected"):
            family_from_record({"family": "pielou", "beta": 2.0, "betta": 1.0})

    def test_non_numeric_parameter(self):
        with pytest.raises(ValueError, match="must be a number"):
            family_from_record({"family": "pielou", "beta": "two"})

    def test_custom_family_has_no_record(self):
        class Flat(CoefficientFamily):
            def value(self, x):
                return 1.0

            def at_zero(self):
                return 1.0

            def limit_at_infinity(self):
                return 1.0

        with pytest.raises(ValueError, match="custom family"):
            family_to_record(Flat())
