import importlib
import os
import shutil
from itertools import cycle, islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pplab import (
    BevertonHolt,
    CoefficientFamily,
    PeriodicSystem,
    Pielou,
    RationalSaturating,
    kernels,
)
from pplab.analysis import solve_product_root
from pplab.kernels import _fallback


def reference_iterate(factors, x0, xm1, steps, stop_below, overflow_limit):
    """The recursion without the cycle lock: every step calls its factor."""
    values = []
    prev = float(xm1)
    cur = float(x0)
    status = 0
    for f in islice(cycle(factors[-1:] + factors[:-1]), steps):
        nxt = cur * f(prev)
        values.append(nxt)
        prev = cur
        cur = nxt
        if nxt > overflow_limit:
            status = 1
            break
        if nxt <= 0.0:
            status = 2
            break
        if nxt < stop_below:
            break
    return np.array(values, dtype=np.float64), status


@pytest.fixture(scope="session")
def compiled_if_cc(request):
    """The compiled kernel where ``cc`` exists, else None."""
    return request.getfixturevalue("compiled") if shutil.which("cc") else None


def _packed_factors(packed):
    # The fallback's closed forms, whose arithmetic the compiled kernel repeats.
    return [_fallback._closed_form(int(c), float(a), float(b), float(g)) for c, a, b, g in zip(*packed)]


def _counted(factors):
    # The factors with one shared call counter, calls[0].
    calls = [0]

    def wrap(f):
        def counted(x):
            calls[0] += 1
            return f(x)

        return counted

    return [wrap(f) for f in factors], calls


_families = st.one_of(
    st.builds(Pielou, st.floats(0.2, 5.0)),
    st.builds(BevertonHolt, lam=st.floats(1.1, 6.0), capacity=st.floats(0.5, 8.0)),
    st.builds(
        RationalSaturating,
        beta=st.floats(0.2, 5.0),
        alpha1=st.floats(0.1, 3.0),
        alpha2=st.floats(0.1, 3.0),
    ),
)


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


class TestCycleLock:
    # Both kernels stop once the state (x[n-1], x[n]) repeats at a block end
    # and fill the rest by repetition; the output must be that of the full loop.

    @settings(max_examples=100, deadline=None)
    @given(
        families=st.lists(_families, min_size=1, max_size=8),
        x0=st.floats(0.01, 10.0),
        xm1=st.one_of(st.just(0.0), st.floats(0.01, 10.0)),
        steps=st.integers(1, 20_000),
        stop_below=st.sampled_from([0.0, 1e-3]),
    )
    def test_matches_reference_loop(self, compiled_if_cc, families, x0, xm1, steps, stop_below):
        packed = kernels.pack_system(PeriodicSystem(families))
        factors = _packed_factors(packed)
        want, want_status = reference_iterate(factors, x0, xm1, steps, stop_below, 1e300)
        got, status = kernels.iterate(factors, x0, xm1, steps, stop_below, 1e300)
        assert status == want_status
        assert got.tobytes() == want.tobytes()
        if compiled_if_cc is not None:
            fast, fast_status = compiled_if_cc(*packed, x0, xm1, steps, stop_below, 1e300)
            assert fast_status == want_status
            assert fast.tobytes() == want.tobytes()

    def test_machine_cycle_longer_than_period(self, compiled_if_cc):
        # This k = 2 system settles into a machine cycle of 14 = 7k steps, so
        # the fill length must be a multiple of that, not of k.
        system = PeriodicSystem(
            [
                BevertonHolt(lam=2.298622152225007, capacity=15.747217808585894),
                BevertonHolt(lam=2.8295704311514176, capacity=12.85419192573737),
            ]
        )
        packed = kernels.pack_system(system)
        factors = _packed_factors(packed)
        root = solve_product_root(system)
        want, want_status = reference_iterate(factors, root, 0.0, 60_000, 0.0, 1e300)
        tail = want[-1_000:]
        assert np.array_equal(tail[14:], tail[:-14])
        assert not np.array_equal(tail[2:], tail[:-2])
        got, status = kernels.iterate(factors, root, 0.0, 60_000, 0.0, 1e300)
        assert status == want_status == kernels.STATUS_OK
        assert got.tobytes() == want.tobytes()
        if compiled_if_cc is not None:
            fast, fast_status = compiled_if_cc(*packed, root, 0.0, 60_000, 0.0, 1e300)
            assert fast_status == want_status
            assert fast.tobytes() == want.tobytes()

    def test_factor_calls_stop_at_the_lock(self, pielou_k2):
        factors, calls = _counted([fam.value for fam in pielou_k2.coefficients])
        values, status = kernels.iterate(factors, 1.0, 1.0, 40_000, 0.0, 1e300)
        assert status == kernels.STATUS_OK
        assert len(values) == 40_000
        assert calls[0] <= 2_000

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="one callable per slot"):
            kernels.iterate([], 1.0, 1.0, 10, 0.0, 1e300)
        with pytest.raises(ValueError, match="steps"):
            kernels.iterate([Pielou(2.0).value], 1.0, 1.0, -1, 0.0, 1e300)

    def test_factor_called_every_step_without_repeat(self):
        # A strictly decaying run never repeats its state, so nothing is filled.
        steps = 100_000
        factors, calls = _counted([Pielou(0.99995).value])
        values, status = kernels.iterate(factors, 1.0, 1.0, steps, 0.0, 1e300)
        assert status == kernels.STATUS_OK
        assert len(values) == steps
        assert calls[0] == steps
