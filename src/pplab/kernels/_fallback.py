"""Pure-Python reference loop of the recursion x[n+1] = x[n] * f_n(x[n-1]).

``iterate`` is the one Python definition of the recursion's semantics: slot
order, store order and guard order.  The compiled kernel ``_kernel.c`` repeats
it statement for statement for the built-in families, so both backends
produce bit-identical trajectories.

A step is a deterministic function of (slot, x[n-1], x[n]), so once that
state repeats exactly, the rest of the run repeats the values in between.
``iterate`` then stops calling the factors and fills the remaining steps by
repeating that stretch.  This is exact only because the factors are pure
functions of x: a factor with hidden state (a counter, a random draw) would
see fewer calls than steps.
"""

from array import array
from itertools import chain, repeat

import numpy as np

# status codes (mirrored literally in the compiled kernel):
# 0 = ok / early stop, 1 = overflow guard fired, 2 = underflow to zero

# The state is compared at the end of blocks of whole periods of at least
# this many steps, so the check costs little next to the steps themselves.
BLOCK_MIN_STEPS = 64


def iterate(factors, x0, xm1, steps, stop_below, overflow_limit):
    """Run the recursion with f_n = factors[(n - 1) mod k]; returns (values, status).

    ``values`` holds x[1..m]; m < steps when a guard fired or the run fell
    below ``stop_below``.  Index 0 uses slot k, the last entry of ``factors``.
    The factors must be pure functions of x: when the state (x[n-1], x[n])
    at the end of a block repeats exactly, the remaining values are filled by
    repetition instead of being computed.
    """
    factors = list(factors)
    if not factors:
        raise ValueError("factors must hold one callable per slot, got none")
    block = (factors[-1:] + factors[:-1]) * -(-BLOCK_MIN_STEPS // len(factors))
    # array.append stores a double faster than indexing a numpy array, and
    # the buffer becomes the result without a copy
    out = array("d")
    store = out.append
    prev = float(xm1)
    cur = float(x0)
    stop_below = float(stop_below)
    overflow_limit = float(overflow_limit)
    steps = int(steps)
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    status = 0
    # Brent's cycle finding over block-end states: compare with a saved state
    # and move it forward after power = 1, 2, 4, ... blocks.
    saved_prev, saved_cur = prev, cur
    power = 1
    lam = 0
    full, rest = divmod(steps, len(block))
    for segment in chain(repeat(block, full), (block[:rest],)):
        for f in segment:
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
        else:
            # every guard passed; the state after a whole block is checked
            # while steps remain to be filled
            lam += 1
            if len(out) < steps and prev == saved_prev and cur == saved_cur:
                return _repeat_tail(out, lam * len(block), steps), status
            if lam == power:
                saved_prev, saved_cur = prev, cur
                power *= 2
                lam = 0
            continue
        break
    return np.frombuffer(out, dtype=np.float64), status


def _repeat_tail(out, length, steps):
    # values[n:steps] continues values[n - length:n] periodically; each slice
    # copy doubles the repeated stretch, so no steps-long temporary is made.
    values = np.empty(steps, dtype=np.float64)
    pos = len(out)
    values[:pos] = out
    start = pos - length
    while pos < steps:
        count = min(pos - start, steps - pos)
        values[pos : pos + count] = values[start : start + count]
        pos += count
    return values


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
