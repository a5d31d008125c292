"""Pure-Python reference loop of the recursion x[n+1] = x[n] * f_n(x[n-1]).

``iterate`` is the one Python definition of the recursion's semantics: slot
order, store order and guard order.  The compiled kernel ``_kernel.c`` repeats
it statement for statement for the built-in families, so both backends
produce bit-identical trajectories.
"""

from array import array
from itertools import cycle, islice

import numpy as np

# status codes (mirrored literally in the compiled kernel):
# 0 = ok / early stop, 1 = overflow guard fired, 2 = underflow to zero


def iterate(factors, x0, xm1, steps, stop_below, overflow_limit):
    """Run the recursion with f_n = factors[(n - 1) mod k]; returns (values, status).

    ``values`` holds x[1..m]; m < steps when a guard fired or the run fell
    below ``stop_below``.  Index 0 uses slot k, the last entry of ``factors``.
    """
    factors = list(factors)
    # array.append stores a double faster than indexing a numpy array, and
    # the buffer becomes the result without a copy
    out = array("d")
    store = out.append
    prev = float(xm1)
    cur = float(x0)
    stop_below = float(stop_below)
    overflow_limit = float(overflow_limit)
    status = 0
    for f in islice(cycle(factors[-1:] + factors[:-1]), int(steps)):
        nxt = cur * f(prev)
        store(nxt)
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
    return np.frombuffer(out, dtype=np.float64), status


def _closed_form(code, a, b, g):
    # f for one packed slot (codes as in pplab.kernels), with the arithmetic of _kernel.c.
    if code == 0:
        return lambda x: a / (1.0 + x)
    if code == 1:
        return lambda x: a / (1.0 + (a - 1.0) * x / b)
    return lambda x: a / (1.0 + b * x / (1.0 + g * x))


def simulate_packed(codes, p1, p2, p3, x0, xm1, steps, stop_below, overflow_limit):
    """The packed-array kernel contract of :mod:`pplab.kernels`, run through ``iterate``."""
    factors = [
        _closed_form(int(c), float(a), float(b), float(g)) for c, a, b, g in zip(codes, p1, p2, p3)
    ]
    return iterate(factors, x0, xm1, steps, stop_below, overflow_limit)
