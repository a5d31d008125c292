import importlib
import os

import numpy as np
import pytest

from pplab import (
    BevertonHolt,
    CoefficientFamily,
    PeriodicSystem,
    Pielou,
    RationalSaturating,
    kernels,
)
from pplab.kernels import _fallback


def _mixed_system():
    return PeriodicSystem(
        [
            Pielou(1.2),
            BevertonHolt(lam=2.0, capacity=3.0),
            RationalSaturating(beta=1.5, alpha1=1.0, alpha2=0.8),
        ]
    )


class TestPacking:
    def test_codes_and_params(self):
        codes, p1, p2, p3 = kernels.pack_system(_mixed_system())
        assert codes.tolist() == [
            kernels.CODE_PIELOU,
            kernels.CODE_BEVERTON_HOLT,
            kernels.CODE_RATIONAL,
        ]
        assert p1.tolist() == [1.2, 2.0, 1.5]
        assert p2.tolist() == [0.0, 3.0, 1.0]
        assert p3.tolist() == [0.0, 0.0, 0.8]

    def test_custom_family_not_packable(self):
        class Odd(CoefficientFamily):
            def value(self, x):
                return 2.0

            def at_zero(self):
                return 2.0

            def limit_at_infinity(self):
                return 2.0

        assert kernels.pack_system(PeriodicSystem([Odd()])) is None

    def test_backend_reported(self):
        assert kernels.BACKEND in ("compiled", "python")


class TestFallbackSemantics:
    def test_early_stop(self):
        packed = kernels.pack_system(PeriodicSystem([Pielou(0.5)]))
        values, status = _fallback.simulate_packed(*packed, 1.0, 0.0, 1000, 1e-6, 1e300)
        assert status == kernels.STATUS_OK
        assert len(values) < 1000
        assert values[-1] < 1e-6
        assert np.all(values > 0.0)

    def test_overflow_status(self):
        packed = kernels.pack_system(PeriodicSystem([Pielou(1e30)]))
        values, status = _fallback.simulate_packed(*packed, 1e280, 0.0, 50, 0.0, 1e300)
        assert status == kernels.STATUS_OVERFLOW
        assert values[-1] > 1e300

    def test_underflow_status(self):
        packed = kernels.pack_system(PeriodicSystem([Pielou(1e-10)]))
        values, status = _fallback.simulate_packed(*packed, 1.0, 0.0, 100, 0.0, 1e300)
        assert status == kernels.STATUS_UNDERFLOW
        assert values[-1] == 0.0


class TestBackendAgreement:
    # identical statement order and -ffp-contract=off make the two backends
    # bit-identical, not merely close

    @pytest.mark.parametrize("seed", range(5))
    def test_bit_identical_trajectories(self, compiled, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 6))
        families = []
        for _ in range(k):
            kind = rng.integers(0, 3)
            if kind == 0:
                families.append(Pielou(float(rng.uniform(0.2, 5.0))))
            elif kind == 1:
                families.append(
                    BevertonHolt(lam=float(rng.uniform(1.1, 6.0)), capacity=float(rng.uniform(0.5, 8.0)))
                )
            else:
                families.append(
                    RationalSaturating(
                        beta=float(rng.uniform(0.2, 5.0)),
                        alpha1=float(rng.uniform(0.1, 3.0)),
                        alpha2=float(rng.uniform(0.1, 3.0)),
                    )
                )
        packed = kernels.pack_system(PeriodicSystem(families))
        x0 = float(rng.uniform(0.01, 10.0))
        xm1 = float(rng.uniform(0.0, 10.0))
        fast, s_fast = compiled(*packed, x0, xm1, 10_000, 0.0, 1e300)
        slow, s_slow = _fallback.simulate_packed(*packed, x0, xm1, 10_000, 0.0, 1e300)
        assert s_fast == s_slow
        assert np.array_equal(fast, slow)

    def test_guard_statuses_agree(self, compiled):
        cases = [
            (PeriodicSystem([Pielou(1e30)]), 1e280, 0.0, 50, 0.0),       # overflow
            (PeriodicSystem([Pielou(1e-10)]), 1.0, 0.0, 100, 0.0),       # underflow
            (PeriodicSystem([Pielou(0.5)]), 1.0, 0.0, 1000, 1e-6),       # early stop
        ]
        for system, x0, xm1, steps, floor in cases:
            packed = kernels.pack_system(system)
            fast, s_fast = compiled(*packed, x0, xm1, steps, floor, 1e300)
            slow, s_slow = _fallback.simulate_packed(*packed, x0, xm1, steps, floor, 1e300)
            assert s_fast == s_slow
            assert np.array_equal(fast, slow)

    def test_compiled_argument_checks(self, compiled):
        codes, p1, p2, p3 = kernels.pack_system(_mixed_system())
        # other dtypes and sequences are coerced, not reinterpreted
        coerced, _ = compiled(codes.astype(np.int64), p1.tolist(), p2, p3, 1.0, 1.0, 100, 0.0, 1e300)
        reference, _ = _fallback.simulate_packed(codes, p1, p2, p3, 1.0, 1.0, 100, 0.0, 1e300)
        assert np.array_equal(coerced, reference)
        with pytest.raises(ValueError, match="one 1-d length"):
            compiled(codes, p1, p2[:2], p3, 1.0, 1.0, 10, 0.0, 1e300)
        with pytest.raises(ValueError, match="one 1-d length"):
            compiled(codes[:0], p1[:0], p2[:0], p3[:0], 1.0, 1.0, 10, 0.0, 1e300)
        with pytest.raises(ValueError, match="steps"):
            compiled(codes, p1, p2, p3, 1.0, 1.0, -1, 0.0, 1e300)


class TestBackendSelection:
    def test_pure_python_env_var(self, monkeypatch):
        import pplab.kernels as mod

        original = os.environ.get("PPLAB_PURE_PYTHON")
        monkeypatch.setenv("PPLAB_PURE_PYTHON", "1")
        try:
            reloaded = importlib.reload(mod)
            assert reloaded.BACKEND == "python"
            assert reloaded.simulate_packed is _fallback.simulate_packed
        finally:
            # restore the module to whatever the ambient environment selects
            if original is None:
                monkeypatch.delenv("PPLAB_PURE_PYTHON", raising=False)
            else:
                monkeypatch.setenv("PPLAB_PURE_PYTHON", original)
            importlib.reload(mod)
