"""One workload run in a fresh process: the closed loop over ``pplab.cli.main``.

Started by run.py, never by hand.  Usage::

    python3 perfbench/child.py WORKLOAD SEED SECONDS TRACE WORKDIR RESULT_JSON

One client, one thread: each operation starts after the previous one
returned.  The loop runs whole blocks of the workload and stops at the block
boundary nearest to SECONDS of the operations' own time, so every run holds
the same mix of operations.  Each operation is timed in wall-clock seconds
and also scaled by the host's speed, sampled with host_probe() just before,
during and just after it.  With TRACE = 0 the time to import pplab
in a fresh interpreter is taken after each block.  With TRACE = 1 the
workload's first block is then run once more, each op untraced and then
traced.  The per-layer numbers are therefore totals over one fixed block of
work, comparable between versions of the program whatever their speed, and
the tracing overhead compares the block's traced and untraced times.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import pplab  # noqa: E402
import pplab.cli  # noqa: E402
from pplab import kernels  # noqa: E402
from pplab.kernels import _fallback  # noqa: E402

from check import check_operation  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import block_ops  # noqa: E402

MIN_BLOCKS = 4
# Scaled timings are seconds on a host that runs host_probe() in this time.
REF_PROBE_S = 5e-5
# While an operation runs, host_probe() also runs this often (wall time).
PROBE_INTERVAL_S = 0.025

_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import pplab, pplab.cli\n"
    "print(time.perf_counter() - t)\n"
)


def host_probe():
    """The host's current speed: seconds for a fixed piece of pure-Python
    work shaped like the kernel's inner loop, the best of three tries.

    The shared host this benchmark was built on alternates, a few seconds at
    a time, between two speeds about 1.6x apart.  Each operation's time is
    therefore also given scaled by REF_PROBE_S over the mean of the probes
    taken just before it, during it and just after it, which cancels the
    host's speed.  The probe uses nothing from pplab, so a change to pplab
    cannot move it.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        coeffs, x, y, seen = [1.5, 2.0, 0.7], 0.5, 0.25, {}
        for i in range(400):
            f = coeffs[i % 3] / (1.0 + y)
            x, y = x * f, x
            seen[i & 31] = x
        best = min(best, time.perf_counter() - start)
    return best


class InOpProbes:
    """While active, runs host_probe() from SIGALRM every PROBE_INTERVAL_S of
    wall time; keeps the results and the time the probes took."""

    def __enter__(self):
        self.samples, self.spent = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(host_probe())
        self.spent += time.perf_counter() - start


def import_seconds():
    """Wall-clock seconds to import pplab and pplab.cli in a fresh interpreter.

    Not scaled: when the host is slow the import slows by about 1.3x, less
    than the probe's 1.7x, so scaling would overcorrect.
    """
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, os.path.join(ROOT, "src")],
        stdout=subprocess.PIPE,
        text=True,
        check=True,
        cwd=ROOT,
    )
    return float(out.stdout)


def _scenario_of(op):
    if op.path is None:
        return op.scenario
    with open(os.path.join(ROOT, op.path), "r", encoding="utf-8") as fh:
        return json.load(fh)


def _clear(out_dir):
    for name in os.listdir(out_dir):
        os.remove(os.path.join(out_dir, name))


def run_op(op, scenario, work_dir):
    """Run one operation; returns (seconds without the probes, exit code or
    None, traceback, host probes taken during it)."""
    out_dir = os.path.join(work_dir, "out")
    _clear(out_dir)
    if op.path is None:
        path = os.path.join(work_dir, "scenario.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(scenario, fh)
    else:
        path = os.path.join(ROOT, op.path)
    argv = [op.command, "--scenario", path, "--out", out_dir]
    start = time.perf_counter()
    with InOpProbes() as probes:
        try:
            code = pplab.cli.main(argv)
            error = None
        except Exception:  # a program fault is one failed operation, not the end of the run
            code = None
            error = traceback.format_exc(limit=-1).strip()
    return time.perf_counter() - start - probes.spent, code, error, probes.samples


def run_loop(ops, work_dir):
    """Run the operations one after another and check each one's outputs."""
    records = []
    before = host_probe()
    for op in ops:
        scenario = _scenario_of(op)
        dt, code, error, during = run_op(op, scenario, work_dir)
        after = host_probe()
        probe = statistics.fmean([before, *during, after])
        if error is not None:
            status, reason = "failed", f"exception: {error.splitlines()[-1]}"
        else:
            reason = check_operation(op.command, scenario, os.path.join(work_dir, "out"), code)
            # Exit 0 with a wrong output is a silent wrong answer; anything
            # else the checker rejects is a failure the program reported.
            status = "ok" if reason is None else ("wrong" if code == 0 else "failed")
        records.append(
            {"index": op.index, "label": op.label, "s": dt, "scaled_s": dt * REF_PROBE_S / probe,
             "probe_s": probe, "exit": code, "status": status, "reason": reason, "traceback": error}
        )
        before = after
    return records


def run_blocks(workload, seed, work_dir, seconds, setup=None):
    """Run whole blocks, at least MIN_BLOCKS of them, until the next one would
    end further from ``seconds`` of operation time than stopping now.

    With a ``setup`` list, an import time taken after each block is appended
    to it, so that the import times sample the host over the whole run.
    """
    records = []
    blocks = 0
    while True:
        for r in run_loop(block_ops(workload, seed, blocks), work_dir):
            r["block"] = blocks
            records.append(r)
        blocks += 1
        if setup is not None:
            setup.append(import_seconds())
        busy = sum(r["s"] for r in records)
        if blocks >= MIN_BLOCKS and busy + 0.5 * busy / blocks >= seconds:
            return records


def bit_identity(seed):
    """Compare the selected kernel with the pure-Python reference on one
    verify_fleet trajectory; None when the selected kernel is the reference."""
    if kernels.simulate_packed is _fallback.simulate_packed:
        return None
    op = next(o for o in block_ops("verify_fleet", seed, 0) if o.scenario is not None)
    system = pplab.PeriodicSystem(
        [pplab.family_from_record(r) for r in op.scenario["coefficients"]]
    )
    args = (*kernels.pack_system(system), 1.0, 1.0, op.scenario["steps"], 0.0, 1e300)
    fast, fast_status = kernels.simulate_packed(*args)
    ref, ref_status = _fallback.simulate_packed(*args)
    return bool(fast_status == ref_status and np.array_equal(fast, ref))


def _layer_metrics(tracer, n_ops):
    rows = tracer.summary()
    counters = tracer.counters

    def row(name):
        return rows.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

    value_calls = sum(r["calls"] for n, r in rows.items() if n.startswith("models.") and n.endswith(".value"))
    kernel_s = row("kernels.simulate_packed")["s"]
    steps = counters["kernels.steps"]
    csv_s = row("dynamics.Trajectory.write_csv")["s"]
    csv_bytes = counters["dynamics.csv_bytes"]
    m = {
        "kernels.simulate_packed.calls": row("kernels.simulate_packed")["calls"],
        "kernels.simulate_packed.s": kernel_s,
        "kernels.steps": steps,
        "kernels.msteps_per_s": steps / kernel_s / 1e6 if kernel_s > 0 else 0.0,
        "kernels.bytes_out": 8 * steps,
        "kernels.pack_system.calls": row("kernels.pack_system")["calls"],
        "kernels.pack_system.s": row("kernels.pack_system")["s"],
        "dynamics.verify_attractivity.self_s": row("dynamics.verify_attractivity")["self_s"],
        "dynamics.write_csv.s": csv_s,
        "dynamics.csv_bytes": csv_bytes,
        "dynamics.csv_mb_per_s": csv_bytes / csv_s / 1e6 if csv_s > 0 else 0.0,
        "dynamics.residue_stats.s": row("dynamics.residue_stats")["s"],
        "dynamics.orbit_relation_residuals.s": row("dynamics.orbit_relation_residuals")["s"],
        "dynamics.orbit_product_residual.s": row("dynamics.orbit_product_residual")["s"],
        "dynamics.simulate.self_s": row("dynamics.simulate")["self_s"],
        "dynamics.extract_orbit.self_s": row("dynamics.extract_orbit")["self_s"],
        "analysis.classify.calls": row("analysis.classify")["calls"],
        "analysis.solve_product_root.calls": row("analysis.solve_product_root")["calls"],
        "analysis.product_at.calls": row("analysis.product_at")["calls"],
        "analysis.check_hypotheses.s": row("analysis.check_hypotheses")["s"],
        "models.growth_factor.calls": row("models.PeriodicSystem.growth_factor")["calls"],
        "models.value.calls": value_calls,
        "cli.load_scenario.s": row("cli.load_scenario")["s"],
        "cli.self_s": row("cli.run")["self_s"],
        "cli.report_bytes": counters["cli.report_bytes"],
    }
    for name in (
        "analysis.classify.calls",
        "analysis.solve_product_root.calls",
        "analysis.product_at.calls",
        "analysis.check_hypotheses.s",
    ):
        m[f"{name}_per_op"] = m[name] / n_ops
    return m


def main(argv):
    # On SIGTERM from run.py, unwind: subprocess.run then kills and reaps an
    # import subprocess in flight.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    workload, seed, seconds, trace, work_dir, result_path = argv
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    os.makedirs(os.path.join(work_dir, "out"), exist_ok=True)
    result = {
        "env": {
            "workload": workload,
            "seed": seed,
            "backend": kernels.BACKEND,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "pplab": os.path.dirname(pplab.__file__),
            "ref_probe_s": REF_PROBE_S,
        },
    }
    if workload == "verify_fleet":
        result["bit_identical"] = bit_identity(seed)

    block = block_ops(workload, seed, 0)
    setup = None
    if not trace:
        # The first import writes the bytecode caches, which a user pays once
        # per install, not per run.
        import_seconds()
        setup = result["setup"] = []
    result["ops"] = run_blocks(workload, seed, work_dir, seconds, setup)

    if trace:
        tracer = Tracer()
        out_report = os.path.join(work_dir, "out", "report.json")
        untraced, replay = [], []
        # Each op of the block runs untraced and then traced, back to back,
        # so that drift in machine speed cancels out of the overhead.
        for op in block:
            untraced += run_loop([op], work_dir)
            tracer.op_id = op.index
            tracer.install()
            try:
                replay += run_loop([op], work_dir)
            finally:
                tracer.uninstall()
            if os.path.exists(out_report):
                tracer.counters["cli.report_bytes"] += os.path.getsize(out_report)
        layers = _layer_metrics(tracer, len(block))
        layers["trace.overhead_frac"] = sum(r["s"] for r in replay) / sum(r["s"] for r in untraced) - 1.0
        result["layers"] = layers
        result["traced_ops"] = replay
        result["untraced_block_ops"] = untraced
        spans_path = result_path[: -len(".json")] + "-spans.jsonl"
        tracer.write(spans_path)
        result["spans_file"] = spans_path

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    _clear(os.path.join(work_dir, "out"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
