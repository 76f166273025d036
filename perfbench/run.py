"""Benchmark of the K-optimistic logging simulator: three open-loop workloads.

    python3 perfbench/run.py --workload steady --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1       # steady, wide, recovery

Every repetition runs in a fresh interpreter (``rep.py``) on the serial
engine.  A run cycles through a fixed set of seeded schedules derived from
``--seed``, each once and the first again, and keeps cycling them while
another repetition fits in ``--seconds`` of host time.  Host times are
calibrated against a fixed pass interleaved with the run
(``calibrate.py``).  It fails
(``correct: false``, exit 1) on any oracle violation, on a counter mismatch
between repetitions of one schedule, or, with ``--trace 1``, when the traced
call counts disagree with the program's own counters.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
outside-in traced and untraced repetitions of the first schedule and
reports the per-layer metrics plus the tracing overhead.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  An operation is one output the application
generated; it fails when still uncommitted after the run settles.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Host-time ceiling for one repetition.
REP_TIMEOUT_S = 120
#: Environment switches that change the table and oracle backends.
FORBIDDEN_ENV = ("REPRO_NO_NUMPY", "REPRO_SPARSE_MIN_N")

#: Printed where they are defined, but not gated: every gated metric must be
#: non-zero on every workload, and a failure-free workload has no restart,
#: revocation or fsync; p99 needs >= 1000 latency samples.
WORKLOAD_EXTRAS = {
    "commit_latency_p99": "sim_units",
    "fsync_bytes_per_output": "B/output",
    "revoked_intervals": "count",
    "restart_ms_p50": "ms",
}


def metric_units(kind: str) -> dict:
    """name -> unit of the ``end_to_end`` or ``per_layer`` metrics, as
    BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


class RunFailed(Exception):
    """A repetition crashed or broke a correctness gate; every output of
    the failed run counts as a failed operation."""

    def __init__(self, message: str, outputs: int = 1):
        super().__init__(message)
        self.outputs = max(outputs, 1)


def schedule_seeds(workload: str, seed: int):
    return [seed * 100 + j for j in range(WORKLOADS[workload].schedules)]


def environment() -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": numpy_version,
    }


def _rep(workload: str, seed: int, trace: bool) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "rep.py"),
           "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{workload} seed {seed}: repetition exceeded "
                        f"{REP_TIMEOUT_S}s")
    if proc.returncode != 0:
        raise RunFailed(f"{workload} seed {seed}: repetition exited "
                        f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _repeat(workload, plan, minimum, seconds):
    """Cycle through ``plan`` (a list of (seed, trace) pairs): at least
    ``minimum`` repetitions, then more while another one fits in
    ``seconds``."""
    reps = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(reps) >= minimum and elapsed * (1 + 1 / len(reps)) > seconds:
            return reps
        seed, trace = plan[len(reps) % len(plan)]
        reps.append((seed, trace, _rep(workload, seed, trace)))


def check(workload, reps):
    """Per-run correctness gate: no oracle violation, every repetition of a
    schedule reproduces the same counters, and output is committed."""
    first = {}
    for seed, _trace, rep in reps:
        counters = rep["counters"]
        outputs = counters["outputs_committed"] + counters["outputs_pending"]
        if rep["violations"]:
            raise RunFailed(f"{workload} seed {seed}: oracle violations: "
                            f"{rep['violations'][:3]}", outputs)
        expected = first.setdefault(seed, counters)
        if counters != expected:
            diff = {k: (expected[k], counters[k]) for k in counters
                    if counters[k] != expected[k]}
            raise RunFailed(f"{workload} seed {seed}: counters differ "
                            f"between repetitions: {diff}", outputs)
        if counters["outputs_committed"] == 0:
            raise RunFailed(f"{workload} seed {seed}: no output committed")
    return first


def _percentile(samples, q):
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def end_to_end(workload, reps, per_schedule):
    """End-to-end metrics: host figures are medians over repetitions;
    simulated figures pool the distinct schedules."""
    runs = [rep for _s, _t, rep in reps]
    firsts = {}
    for seed, _t, rep in reps:
        firsts.setdefault(seed, rep)
    latencies = [x for rep in firsts.values() for x in rep["latencies"]]
    total = {k: sum(c[k] for c in per_schedule.values())
             for k in ("deliveries", "outputs_committed", "control_messages",
                       "bytes_fsynced", "revoked_intervals",
                       "piggyback_entries", "app_sends")}
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "deliveries_per_s": statistics.median(
            r["counters"]["deliveries"] / r["run_s"] for r in runs),
        "outputs_per_s": statistics.median(
            r["counters"]["outputs_committed"] / r["run_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "commit_latency_p50": _percentile(latencies, 50),
        "commit_latency_p95": _percentile(latencies, 95),
        "control_msgs_per_delivery":
            total["control_messages"] / total["deliveries"],
        "piggyback_entries_mean":
            total["piggyback_entries"] / total["app_sends"],
    }
    extras = {}
    if len(latencies) >= 1000:
        extras["commit_latency_p99"] = _percentile(latencies, 99)
    if total["bytes_fsynced"]:
        extras["fsync_bytes_per_output"] = (
            total["bytes_fsynced"] / total["outputs_committed"])
    if any(r["restart_ms"] for r in runs):
        extras["revoked_intervals"] = (
            total["revoked_intervals"] / len(per_schedule))
        extras["restart_ms_p50"] = statistics.median(
            ms for r in runs for ms in r["restart_ms"])
    notes = {"latency_samples": len(latencies), "reps": len(runs),
             "schedules": len(per_schedule),
             "raw_setup_s": statistics.median(r["raw_setup_s"] for r in runs),
             "cold_setup_s": statistics.median(
                 r["cold_setup_s"] for r in runs),
             "raw_deliveries_per_s": statistics.median(
                 r["counters"]["deliveries"] / r["raw_run_s"] for r in runs)}
    return metrics, extras, notes


def per_layer(workload, reps):
    """Per-layer metrics from the traced repetitions, overhead against the
    untraced ones, and the cross-check of traced call counts against the
    program's own counters on failure-free workloads."""
    traced = [rep for _s, t, rep in reps if t]
    plain = [rep for _s, t, rep in reps if not t]
    layers = traced[0]["layers"]
    for rep in traced[1:]:
        calls = {k: v for k, v in rep["layers"].items()
                 if k.endswith(".calls")}
        if any(layers[k] != v for k, v in calls.items()):
            raise RunFailed(f"{workload}: traced call counts differ between "
                            "repetitions")
    counters = traced[0]["counters"]
    stats = traced[0]["stats"]
    if not WORKLOADS[workload].crashes:
        for seam, counter in (("net.send_app.calls", "released"),
                              ("core.protocol.on_receive.calls",
                               "deliveries")):
            if layers[seam] != counters[counter]:
                raise RunFailed(
                    f"{workload}: {seam}={layers[seam]} but the program "
                    f"counted {counter}={counters[counter]}")
    metrics = {}
    for key in layers:
        if key.endswith(".calls"):
            metrics[key] = layers[key]
        else:
            metrics[key] = statistics.median(r["layers"][key] for r in traced)
    outputs = counters["outputs_committed"]
    restarts = [ms for r in plain for ms in r["restart_ms"]]
    metrics.update({
        "sim.events": counters["events"],
        "sim.events_per_delivery": counters["events"] / counters["deliveries"],
        "core.protocol.send_hold_mean": stats["send_hold_mean"],
        "core.protocol.delivery_wait_mean": stats["delivery_wait_mean"],
        "core.protocol.orphans_discarded": stats["orphans_discarded"],
        "core.protocol.outputs_discarded": stats["outputs_discarded"],
        "core.protocol.messages_requeued": stats["messages_requeued"],
        "core.protocol.receive_log_useful_frac":
            statistics.median(r["receive_log_useful_frac"] for r in traced),
        "core.protocol.revoked_intervals": counters["revoked_intervals"],
        "core.protocol.restart_ms_p50":
            statistics.median(restarts) if restarts else 0.0,
        "net.control_messages": counters["control_messages"],
        "net.retransmissions": stats["retransmissions"],
        "storage.bytes_written": stats["bytes_written"],
        "storage.bytes_fsynced": counters["bytes_fsynced"],
        "storage.fsync_bytes_per_output": counters["bytes_fsynced"] / outputs,
        "storage.fsyncs": stats["fsyncs"],
        "storage.group_commits": stats["group_commits"],
        "storage.recovered_records": stats["recovered_records"],
        "storage.io_retries": stats["io_retries"],
        "control.k_decisions": stats["k_decisions"],
        "control.k_mean": stats["k_mean"],
        "workloads.generate_s":
            statistics.median(r["generate_s"] for _s, _t, r in reps),
        "workloads.install_s":
            statistics.median(r["install_s"] for _s, _t, r in reps),
        "trace.overhead_frac":
            statistics.median(r["run_s"] for r in traced)
            / statistics.median(r["run_s"] for r in plain) - 1.0,
    })
    return metrics


def run_workload(workload, seed, seconds, trace):
    """Measure one workload; returns the result object for the last line."""
    seeds = schedule_seeds(workload, seed)
    if trace:
        plan = [(seeds[0], True), (seeds[0], False)]
    else:
        plan = [(s, False) for s in seeds]
    try:
        # One more than the plan: the first schedule (traced, with --trace)
        # runs twice, so every run checks that its counters repeat.
        reps = _repeat(workload, plan, len(plan) + 1, seconds)
        per_schedule = check(workload, reps)
        if trace:
            metrics, extras = per_layer(workload, reps), {}
            notes = {"reps": len(reps)}
        else:
            metrics, extras, notes = end_to_end(workload, reps, per_schedule)
    except RunFailed as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return {"correct": False, "attempted": exc.outputs,
                "failed": exc.outputs, "metrics": {}}
    units = metric_units("per_layer" if trace else "end_to_end")
    if set(metrics) != set(units):
        raise RuntimeError("metrics do not match BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    units.update(WORKLOAD_EXTRAS)
    attempted = sum(c["outputs_committed"] + c["outputs_pending"]
                    for c in per_schedule.values())
    failed = sum(c["outputs_pending"] for c in per_schedule.values())
    print(f"workload={workload} seed={seed} {json.dumps(notes)}")
    for name, value in list(metrics.items()) + list(extras.items()):
        gated = "  (not gated)" if name in extras else ""
        print(f"  {name:48s} {value:16.6f} {units[name]}{gated}")
    return {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(WORKLOADS) + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bad = [name for name in FORBIDDEN_ENV if name in os.environ]
    if bad:
        print(f"refusing to run: {', '.join(bad)} set; it switches the "
              "table and oracle backends the workloads measure",
              file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no program source under {ROOT}/src/repro", file=sys.stderr)
        return 2
    print(f"env {json.dumps(environment())}")
    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    correct = True
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        correct &= result["correct"]
        print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
