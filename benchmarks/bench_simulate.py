#!/usr/bin/env python3
"""Benchmark the compiled C simulation kernel against the pure-Python fallback.

The recursion is inherently sequential, so this loop is the package's hot
path; everything else (root solves, Newton refinement, reports) is O(period).

Usage: python benchmarks/bench_simulate.py [--steps N] [--repeats R]
"""

import argparse
import time

import numpy as np

from pplab import BevertonHolt, PeriodicSystem, Pielou, RationalSaturating, kernels
from pplab.kernels import _fallback, pack_system


def best_time(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=2_000_000)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    system = PeriodicSystem(
        [
            Pielou(1.2),
            BevertonHolt(lam=2.0, capacity=3.0),
            RationalSaturating(beta=1.5, alpha1=1.0, alpha2=0.8),
        ]
    )
    packed = pack_system(system)
    run_args = (1.0, 1.0, args.steps, 0.0, 1e300)

    print(f"simulating {args.steps:,} steps of a period-3 mixed-family system "
          f"(best of {args.repeats})\n")

    t_py = best_time(lambda: _fallback.simulate_packed(*packed, *run_args), args.repeats)
    print(f"  pure python : {t_py:8.3f} s   {args.steps / t_py / 1e6:8.2f} Msteps/s")

    if kernels.BACKEND != "compiled":
        print("  compiled    : not built (python setup.py build_ext --inplace, needs a C compiler)")
        return

    t_c = best_time(lambda: kernels.simulate_packed(*packed, *run_args), args.repeats)
    print(f"  compiled    : {t_c:8.3f} s   {args.steps / t_c / 1e6:8.2f} Msteps/s")
    print(f"\n  speedup     : {t_py / t_c:.1f}x")

    fast, _ = kernels.simulate_packed(*packed, *run_args)
    slow, _ = _fallback.simulate_packed(*packed, *run_args)
    identical = np.array_equal(fast, slow)
    print(f"  bit-identical results: {identical}")


if __name__ == "__main__":
    main()
