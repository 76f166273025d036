"""One benchmark repetition in a fresh interpreter.

    python3 perfbench/rep.py --workload steady --seed 1 [--trace]

Builds the harness, installs the seeded schedule, runs and settles it, and
prints one JSON object: host timings (rescaled with :mod:`calibrate`, and
raw), peak RSS, the program's own counters,
the committed-output latency samples (simulated time) and, with
``--trace``, the per-layer spans of :mod:`layers`.  ``run.py`` starts one
such process per repetition, so no module-level state survives between
repetitions.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
from time import perf_counter, perf_counter_ns

from calibrate import SETUP_PASSES, Calibration

#: Harness builds per repetition; the last one runs.
SETUP_BUILDS = 6

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _time_restarts(samples_ns):
    """Record the host time of every ``KOptimisticProcess.restart`` call
    (REDO scan plus replay).  Installed under the layer tracer, so the
    traced and untraced runs time the same call."""
    from repro.core.protocol import KOptimisticProcess

    original = KOptimisticProcess.restart

    def restart(self, *args, **kwargs):
        start = perf_counter_ns()
        try:
            return original(self, *args, **kwargs)
        finally:
            samples_ns.append(perf_counter_ns() - start)

    KOptimisticProcess.restart = restart


def _time_fsyncs():
    """Accumulate the host time spent in ``os.fsync``; returns the
    one-element list holding the running total in seconds."""
    total = [0.0]
    original = os.fsync

    def fsync(fd):
        start = perf_counter()
        try:
            return original(fd)
        finally:
            total[0] += perf_counter() - start

    os.fsync = fsync
    return total


def _program_counters(harness, m):
    """The program's own counters: deterministic for a given seed."""
    latencies = sorted(harness.output_latency_samples)
    digest = hashlib.sha256(
        json.dumps(latencies).encode("ascii")).hexdigest()[:16]
    return {
        "events": harness.engine.events_executed,
        "deliveries": m.messages_delivered,
        "released": m.messages_released,
        "outputs_committed": m.outputs_committed,
        "outputs_pending": m.outputs_pending,
        "control_messages": m.control_messages,
        "bytes_fsynced": m.storage_bytes_fsynced,
        "revoked_intervals": m.rolled_back_intervals,
        "piggyback_entries": harness.network.piggyback_entries_total,
        "app_sends": harness.network.app_messages_sent,
        "latency_digest": digest,
    }


def _program_stats(m):
    """Simulated-time and count metrics the per-layer report carries."""
    return {
        "send_hold_mean": m.mean_send_hold,
        "delivery_wait_mean": m.mean_delivery_wait,
        "orphans_discarded": m.orphans_discarded,
        "outputs_discarded": m.outputs_discarded,
        "messages_requeued": m.messages_requeued,
        "retransmissions": m.retransmissions,
        "bytes_written": m.storage_bytes_written,
        "fsyncs": m.storage_fsyncs,
        "group_commits": m.storage_group_commits,
        "recovered_records": m.storage_recovered_records,
        "io_retries": m.storage_io_retries,
        "k_decisions": m.k_decisions,
        "k_mean": m.k_mean,
    }


def run_once(workload_name: str, seed: int, trace: bool) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    restart_ns = []
    _time_restarts(restart_ns)
    tracer = None
    if trace:
        from layers import LayerTracer

        tracer = LayerTracer().install()
    from repro.runtime.harness import SimulationHarness
    from repro.workloads.openloop import OpenLoopBehavior

    work_root = os.path.join(ROOT, ".bench_build")
    os.makedirs(work_root, exist_ok=True)
    fsync_s = _time_fsyncs()
    setup_cal, run_cal = Calibration(), Calibration()
    setups = []
    harness = storage_dir = None
    try:
        for build in range(SETUP_BUILDS):
            if harness is not None:
                harness.close()
                shutil.rmtree(storage_dir, ignore_errors=True)
                harness = None
                gc.collect()
            if tracer is not None and build == SETUP_BUILDS - 1:
                # Count the seams of the harness that runs, as one build.
                tracer.reset()
            storage_dir = tempfile.mkdtemp(prefix="perfbench-", dir=work_root)
            setup_cal.passes(SETUP_PASSES)
            t0 = perf_counter()
            stimuli = workload.schedule(seed)
            t1 = perf_counter()
            harness = SimulationHarness(
                workload.sim_config(seed, storage_dir), OpenLoopBehavior(),
                failures=workload.failures())
            t2 = perf_counter()
            for due, dst, payload in stimuli:
                harness.inject_at(due, dst, payload)
            t3 = perf_counter()
            setups.append((t3 - t0, t1 - t0, t3 - t2))
        setup_cal.passes(SETUP_PASSES)
        run_cal.attach(harness.engine, storage_dir)
        fsync_before = fsync_s[0]
        t4 = perf_counter()
        harness.run(workload.duration)
        run_s = perf_counter() - t4 - run_cal.in_run_s
        run_fsync_s = fsync_s[0] - fsync_before
        run_cal.detach(harness.engine)
        m = harness.metrics()
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        if harness is not None:
            harness.close()
        if storage_dir is not None:
            shutil.rmtree(storage_dir, ignore_errors=True)
    # The first build warms the interpreter (lazy imports, first-use
    # caches); set-up time is the median of the later ones.
    setup_s, generate_s, install_s = (
        statistics.median(column) for column in zip(*setups[1:]))
    result = {
        "setup_s": setup_cal.scale(setup_s),
        "generate_s": setup_cal.scale(generate_s),
        "install_s": setup_cal.scale(install_s),
        "cold_setup_s": setup_cal.scale(setups[0][0]),
        "run_s": run_cal.scale(run_s - run_fsync_s)
        + run_cal.scale_fsync(run_fsync_s),
        "raw_setup_s": setup_s,
        "raw_run_s": run_s,
        "fsync_s": run_fsync_s,
        "ref_fsync_ms": 1e3 * statistics.median(run_cal.fsync_s),
        "calibration_passes": len(run_cal.pass_s),
        "peak_rss_mb": peak_rss_mb,
        "restart_ms": [ns / 1e6 for ns in restart_ns],
        "counters": _program_counters(harness, m),
        "stats": _program_stats(m),
        "latencies": sorted(harness.output_latency_samples),
        "violations": list(m.violations),
    }
    if tracer is not None:
        layers = tracer.report()
        # Calibration passes run inside Engine.run, between events.
        layers["sim.run.self_s"] -= run_cal.in_run_s
        result["layers"] = {
            key: run_cal.scale(value) if key.endswith(".self_s") else value
            for key, value in layers.items()}
        useful = tracer.span("core.protocol.on_log_notifications")
        result["receive_log_useful_frac"] = (
            useful.useful / useful.calls if useful.calls else 0.0)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    print(json.dumps(run_once(args.workload, args.seed, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
