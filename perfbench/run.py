#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the pplab command-line front end.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run drives ``pplab.cli.main([command, "--scenario", file, "--out",
dir])`` in-process as a closed loop with one client (see workloads.py for
the three workloads and BENCHMARK.json for why each exists).  One fresh child
process runs the loop; the package is imported from ``src/`` of this
checkout with whatever kernel backend it selects on import.

``--trace 0`` prints the end-to-end metrics: set-up time (import of
``pplab`` and ``pplab.cli`` in fresh processes), goodput, latency of correct
operations, peak RSS of the child and the share of operations that succeed.
Operation timings are scaled by the host's speed, measured next to each of
them (see ``host_probe`` in child.py); the wall-clock values are printed
beside them.
``--trace 1`` prints the per-layer metrics of a traced replay of the same
operations (see spans.py) and the tracing overhead.  Every operation's
outputs are checked independently (check.py).  The run environment and the
per-operation records go to ``.perfbench_work/results/``; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")

sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402

# Every run must end within this many seconds of wall time.
RUN_DEADLINE_S = 170.0

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _fh:
    _SPEC = json.load(_fh)
UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"] + _SPEC["per_layer"]}


def fail(message):
    print(f"perfbench: error: {message}", file=sys.stderr)
    sys.exit(2)


def _run(cmd, timeout, **kwargs):
    """subprocess.run that stops and reaps the child when it overruns.

    SIGTERM first: child.py then stops and reaps its own import subprocess.
    """
    with subprocess.Popen(cmd, **kwargs) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.terminate()
            try:
                proc.communicate(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
            fail(f"{cmd[1]} did not finish within {timeout:.0f} s")
        return proc.returncode, out


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), "r", encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = os.path.join(git_dir, ref)
        if os.path.exists(loose):
            with open(loose, "r", encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git_dir, "packed-refs"), "r", encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def timing(ops, key):
    """Goodput and latency percentiles of correct operations, from ``key``."""
    good = [r[key] for r in ops if r["status"] == "ok"]
    # With no correct operation the latency of all attempted ones stands in,
    # so that a broken program still gets a result line instead of a crash.
    latency = good or [r[key] for r in ops]
    p90 = statistics.quantiles(latency, n=10, method="inclusive")[8] if len(latency) > 1 else latency[0]
    return {
        "good_ops_per_s": len(good) / sum(r[key] for r in ops),
        "op_p50_s": statistics.median(latency),
        "op_p90_s": p90,
    }


def end_to_end(ops, setup, peak_rss_mb):
    return {
        "setup_s": statistics.median(setup),
        **timing(ops, "scaled_s"),
        "peak_rss_mb": peak_rss_mb,
        "ok_share": sum(r["status"] == "ok" for r in ops) / len(ops),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "pplab", "cli.py")):
        fail(f"no pplab sources under {os.path.join(ROOT, 'src')}")
    if not os.path.isdir(os.path.join(ROOT, "scenarios")):
        fail("missing scenarios/ in the checkout")

    results_dir = os.path.join(WORK, "results")
    run_dir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(results_dir, exist_ok=True)
    os.makedirs(run_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = os.path.join(results_dir, f"{tag}.json")

    try:
        with open(os.path.join(results_dir, f"{tag}.stderr"), "w", encoding="utf-8") as err:
            code, _ = _run(
                [
                    sys.executable,
                    os.path.join(HERE, "child.py"),
                    args.workload,
                    str(args.seed),
                    repr(args.seconds),
                    str(args.trace),
                    run_dir,
                    result_path,
                ],
                timeout=max(1.0, deadline - time.monotonic()),
                stdout=subprocess.DEVNULL,
                stderr=err,
                cwd=ROOT,
            )
        if code != 0:
            fail(f"workload process exited with {code}; see {err.name}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    with open(result_path, "r", encoding="utf-8") as fh:
        result = json.load(fh)
    result["env"]["git_commit"] = git_commit()
    ops = result["ops"]
    checked = ops + result.get("untraced_block_ops", []) + result.get("traced_ops", [])
    wrong = [r for r in checked if r["status"] == "wrong"]
    failed = [r for r in ops if r["status"] != "ok"]
    correct = not wrong and result.get("bit_identical") is not False

    if args.trace:
        metrics = result["layers"]
    else:
        metrics = end_to_end(ops, result["setup"], result["peak_rss_mb"])
    declared = [m["name"] for m in _SPEC["per_layer" if args.trace else "end_to_end"]]
    if sorted(metrics) != sorted(declared):
        fail(f"measured metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(declared)}")
    result["metrics"] = metrics
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    env = result["env"]
    print(
        f"# {args.workload} seed={args.seed} backend={env['backend']} python={env['python']} "
        f"numpy={env['numpy']} nproc={env['nproc']} commit={env['git_commit']}"
    )
    bit = result.get("bit_identical", "n/a")
    print(f"# kernel bit-identity vs _fallback: {'skipped (selected backend is the reference)' if bit is None else bit}")
    print(f"# operations: {len(ops)} attempted, {len(failed)} failed, error_rate {len(failed) / len(ops):.4f}")
    reasons: dict = {}
    for r in failed:
        key = re.sub(r"\d[\d.e+-]*", "N", r["reason"])[:120]
        reasons[key] = reasons.get(key, 0) + 1
    for key, n in sorted(reasons.items(), key=lambda kv: -kv[1]):
        print(f"#   {n:5d} x {key}")
    if not args.trace:
        good_n = len(ops) - len(failed)
        which = "correct" if good_n else "attempted (none correct)"
        n_blocks = len({r["block"] for r in ops})
        print(f"# latency percentiles over {good_n or len(ops)} {which} operations in {n_blocks} blocks")
        raw = timing(ops, "s")
        print("# unscaled wall-clock seconds: " + ", ".join(f"{n} {v:.6g}" for n, v in raw.items()))
        probe = statistics.median(r["probe_s"] for r in ops)
        print(f"# host probe median {probe:.4g} s against the reference {env['ref_probe_s']:g} s")
    for name, value in metrics.items():
        print(f"{name:42s} {value:.6g} {UNITS[name]}")
    print(f"# details: {result_path}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(ops),
                "failed": len(failed),
                "metrics": {n: {"value": v, "unit": UNITS[n]} for n, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
