"""Pure-Python reference implementation of the simulation kernel.

Statement order in the loop matches the compiled kernel ``_kernel.c`` exactly,
so both backends produce bit-identical trajectories.
"""

import numpy as np

# status codes (mirrored literally in the compiled kernel):
# 0 = ok / early stop, 1 = overflow guard fired, 2 = underflow to zero


def simulate_packed(codes, p1, p2, p3, x0, xm1, steps, stop_below, overflow_limit):
    k = len(codes)
    code_l = [int(c) for c in codes]
    a = [float(v) for v in p1]
    b = [float(v) for v in p2]
    g = [float(v) for v in p3]
    out = np.empty(int(steps), dtype=np.float64)
    prev = float(xm1)
    cur = float(x0)
    stop_below = float(stop_below)
    overflow_limit = float(overflow_limit)
    idx = k - 1  # slot of the coefficient for index 0 (wraps to slot k)
    status = 0
    m = 0
    for _ in range(int(steps)):
        code = code_l[idx]
        if code == 0:
            f = a[idx] / (1.0 + prev)
        elif code == 1:
            f = a[idx] / (1.0 + (a[idx] - 1.0) * prev / b[idx])
        else:
            f = a[idx] / (1.0 + b[idx] * prev / (1.0 + g[idx] * prev))
        nxt = cur * f
        out[m] = nxt
        m += 1
        prev = cur
        cur = nxt
        idx += 1
        if idx == k:
            idx = 0
        if nxt > overflow_limit:
            status = 1
            break
        if nxt <= 0.0:
            status = 2
            break
        if nxt < stop_below:
            break
    return out[:m], status
