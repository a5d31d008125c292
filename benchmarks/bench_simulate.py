#!/usr/bin/env python3
"""Benchmark the compiled C simulation kernel against the pure-Python fallback.

The recursion is inherently sequential, so this loop is the package's hot
path; everything else (root solves, Newton refinement, reports) is O(period).

Both kernels stop computing once a run's state repeats exactly and fill the
rest by repetition, so a steps-per-second figure means something only for a
run that never repeats.  The raw loop is therefore timed on a strictly
decaying period-3 schedule; a period-3 system that settles into a cycle is
timed on its own, as whole-run seconds that include the fill.

Usage: python benchmarks/bench_simulate.py [--steps N] [--repeats R]
"""

import argparse
import time

import numpy as np

from pplab import BevertonHolt, PeriodicSystem, Pielou, RationalSaturating, kernels
from pplab.kernels import _fallback, pack_system

# The product of the factors at zero is 1 - 3e-7 < 1, and every factor
# falls as x grows, so x drops at every period and the state never repeats.
DECAYING = PeriodicSystem(
    [
        Pielou(0.5),
        BevertonHolt(lam=2.0, capacity=3.0),
        RationalSaturating(beta=0.9999997, alpha1=1.0, alpha2=0.8),
    ]
)
# Runs of this system converge to its attracting 3-cycle and lock onto it.
LOCKING = PeriodicSystem(
    [
        Pielou(1.2),
        BevertonHolt(lam=2.0, capacity=3.0),
        RationalSaturating(beta=1.5, alpha1=1.0, alpha2=0.8),
    ]
)


def best_time(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def compare(system, run_args, repeats, rate):
    """Time both backends on ``system``; print Msteps/s when ``rate``, else seconds."""
    packed = pack_system(system)
    steps = run_args[2]

    def show(label, seconds):
        figure = f"{steps / seconds / 1e6:8.2f} Msteps/s" if rate else "(whole run)"
        print(f"  {label:<12}: {seconds:9.4f} s   {figure}")

    t_py = best_time(lambda: _fallback.simulate_packed(*packed, *run_args), repeats)
    show("pure python", t_py)
    if kernels.BACKEND != "compiled":
        print("  compiled    : not built (python setup.py build_ext --inplace, needs a C compiler)")
        return
    t_c = best_time(lambda: kernels.simulate_packed(*packed, *run_args), repeats)
    show("compiled", t_c)
    print(f"  speedup     : {t_py / t_c:.1f}x")
    fast, _ = kernels.simulate_packed(*packed, *run_args)
    slow, _ = _fallback.simulate_packed(*packed, *run_args)
    print(f"  bit-identical results: {np.array_equal(fast, slow)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=2_000_000)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    run_args = (1.0, 1.0, args.steps, 0.0, 1e300)

    print(f"raw loop: {args.steps:,} steps of a strictly decaying period-3 "
          f"mixed-family system (best of {args.repeats})")
    compare(DECAYING, run_args, args.repeats, rate=True)
    print(f"\nlocking system: {args.steps:,} steps of a period-3 mixed-family system "
          f"that repeats exactly, so most values are copied (best of {args.repeats})")
    compare(LOCKING, run_args, args.repeats, rate=False)


if __name__ == "__main__":
    main()
