"""Simulation backends: a compiled C kernel when built, pure Python otherwise.

Both backends implement one contract::

    simulate_packed(codes, p1, p2, p3, x0, xm1, steps, stop_below, overflow_limit)
        -> (values, status)

where ``values`` holds x[1..m] (m < steps when a guard fired) and ``status``
is one of the STATUS_* constants below.  The reference is ``iterate`` in
``_fallback``, the only Python loop of the recursion: it takes one callable
per slot, so it also runs custom families and the period map of orbit
extraction.  The fallback's ``simulate_packed`` maps the packed arrays to the
closed forms and calls it.  The compiled kernel is the plain C file
``_kernel.c``, built by ``python setup.py build_ext --inplace`` (or any
install with a C compiler) and loaded through ctypes; the call releases the
GIL.  Arithmetic order is identical in both, and the C file is compiled
without FP contraction, so the two produce bit-identical trajectories.

Both stop iterating once the state (x[n-1], x[n]) repeats exactly at the
same slot, which a converged periodic run reaches in floating point, and fill
the remaining values by repeating the stretch since the earlier occurrence.
The values and status are those of the full loop, because a step depends only
on the slot and that state.  The factors given to ``iterate`` must therefore
be pure functions of x.

Set ``PPLAB_PURE_PYTHON=1`` to force the fallback.
"""

import ctypes
import os
from importlib.machinery import EXTENSION_SUFFIXES

import numpy as np

from pplab import models
from pplab.kernels._fallback import iterate

STATUS_OK = 0
STATUS_OVERFLOW = 1
STATUS_UNDERFLOW = 2

CODE_PIELOU = 0
CODE_BEVERTON_HOLT = 1
CODE_RATIONAL = 2


def _load_compiled(directory, filename):
    """simulate_packed on the C library ``directory/filename``; None if absent or unloadable."""
    path = os.path.join(directory, filename)
    if not os.path.isfile(path):
        return None
    try:
        c_fn = ctypes.CDLL(path).simulate_packed
    except OSError:
        return None
    dbl, i64, ptr = ctypes.c_double, ctypes.c_int64, ctypes.c_void_p
    c_fn.argtypes = [ptr] * 4 + [i64, dbl, dbl, i64, dbl, dbl, ptr, ctypes.POINTER(ctypes.c_int32)]
    c_fn.restype = i64

    def simulate_packed(codes, p1, p2, p3, x0, xm1, steps, stop_below, overflow_limit):
        # The C loop trusts these lengths; checking them here keeps it memory safe.
        arrays = [np.ascontiguousarray(codes, dtype=np.int32)]
        arrays += [np.ascontiguousarray(p, dtype=np.float64) for p in (p1, p2, p3)]
        k = arrays[0].size
        if k < 1 or any(a.shape != (k,) for a in arrays):
            raise ValueError(f"codes, p1..p3 need one 1-d length >= 1: {[a.shape for a in arrays]}")
        steps = int(steps)
        if steps < 0:
            raise ValueError(f"steps must be >= 0, got {steps}")
        out = np.empty(steps, dtype=np.float64)
        status = ctypes.c_int32()
        m = c_fn(*(a.ctypes.data for a in arrays), k, x0, xm1, steps, stop_below,
                 overflow_limit, out.ctypes.data, ctypes.byref(status))
        return out[:m], status.value

    return simulate_packed


simulate_packed = None
if os.environ.get("PPLAB_PURE_PYTHON", "") in ("", "0"):
    # EXTENSION_SUFFIXES[0] is the suffix setuptools gives the built library.
    simulate_packed = _load_compiled(os.path.dirname(__file__), "_kernel" + EXTENSION_SUFFIXES[0])
BACKEND = "python" if simulate_packed is None else "compiled"
if simulate_packed is None:
    from pplab.kernels._fallback import simulate_packed


def pack_system(system):
    """Encode the system's families as (codes, p1, p2, p3) kernel arrays.

    Returns None when some coefficient is a custom family the kernels cannot
    evaluate; callers then run ``iterate`` on the families' ``value`` methods.
    """
    k = system.period
    codes = np.empty(k, dtype=np.int32)
    p1 = np.zeros(k, dtype=np.float64)
    p2 = np.zeros(k, dtype=np.float64)
    p3 = np.zeros(k, dtype=np.float64)
    for i, fam in enumerate(system.coefficients):
        if isinstance(fam, models.Pielou):
            codes[i] = CODE_PIELOU
            p1[i] = fam.beta
        elif isinstance(fam, models.BevertonHolt):
            codes[i] = CODE_BEVERTON_HOLT
            p1[i] = fam.lam
            p2[i] = fam.capacity
        elif isinstance(fam, models.RationalSaturating):
            codes[i] = CODE_RATIONAL
            p1[i] = fam.beta
            p2[i] = fam.alpha1
            p3[i] = fam.alpha2
        else:
            return None
    return codes, p1, p2, p3
