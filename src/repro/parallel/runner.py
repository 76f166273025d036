"""Epoch-barrier parallel runner: W shard heaps on W real OS processes.

The serial :class:`~repro.sim.shard.ShardedEngine` already partitions the
event queue into per-shard heaps but drains them on one core.  This
runner puts each shard group on its own forked worker and exploits the
network's minimum latency as conservative PDES lookahead:

    L = min(msg_latency_base - msg_latency_jitter, control_latency) > 0

Every cross-process message generated at time ``t`` arrives no earlier
than ``t + L``.  Each epoch the coordinator computes the global minimum
pending event time ``h`` (after inserting the previous epoch's
cross-worker arrivals) and lets every worker drain its heap through the
window ``[h, h + L)`` independently — no event fired in the window can
produce an arrival inside it.  At the barrier the workers' outboxes are
exchanged, canonically ordered, and inserted; the certified ``dep.*``
trace of the merged run is bit-identical to the serial sharded engine's.

The barrier is two-phase — *insert* is acknowledged by every receiver
before any *run* command is issued — which doubles as the lifetime fence
for the shared-memory snapshot arenas (:mod:`repro.parallel.shm`).
"""

from __future__ import annotations

import dataclasses
import multiprocessing
from typing import Any, Dict, List, Optional, Tuple

from repro.app.behavior import AppBehavior
from repro.failures.injector import (
    CrashEvent,
    FailureSchedule,
    StorageFaultEvent,
)
from repro.parallel.trace import DepEvent, canonical_dep_events, dump_canonical
from repro.parallel.worker import OutboxEntry, worker_main
from repro.runtime.config import SimConfig
from repro.runtime.metrics import (
    RunMetrics,
    mean_recovery_span,
    sample_mean,
    sample_percentile,
)


def lookahead(config: SimConfig) -> float:
    """The conservative lookahead window (positive by config validation)."""
    return min(config.msg_latency_base - config.msg_latency_jitter,
               config.control_latency)


#: Canonical barrier-merge order for cross-worker arrivals.  ``src``
#: identifies the generating worker and ``counter`` preserves that
#: worker's generation order, so the sort is a deterministic function of
#: the run, independent of which worker's outbox drained first.
def _merge_key(entry: OutboxEntry):
    arrival, priority, gen_time, src, counter = entry[:5]
    return (arrival, priority, gen_time, src, counter)


class _EngineView:
    """Duck-typed stand-in for :attr:`SimulationHarness.engine` so bench
    code can read ``harness.engine.events_executed`` unchanged."""

    def __init__(self) -> None:
        self.events_executed = 0
        self.now = 0.0


# Fields whose merge is not a plain sum over worker partials.
_SET_FIELDS = frozenset({"n", "k", "duration", "slo_target"})
_MAX_FIELDS = frozenset({"max_send_hold", "max_piggyback_entries",
                         "max_release_revokers"})
_SPECIAL_FIELDS = frozenset({
    "mean_send_hold", "mean_delivery_wait", "mean_piggyback_entries",
    "mean_output_latency", "mean_ack_rtt", "mean_recovery_span",
    "output_latency_p50", "output_latency_p95", "output_latency_p99",
    "output_latency_count", "slo_attained",
    "adaptive_k", "k_mean", "k_final_mean",
    "violations",
})


def merge_metrics(partials: List[RunMetrics], extras: List[Dict[str, Any]],
                  duration: float) -> RunMetrics:
    """Combine per-worker :class:`RunMetrics` partials into the metrics
    the equivalent serial run would report.

    Counters sum (workers own disjoint process sets, and network counters
    are sender-local); maxima take the max; every mean/percentile field is
    recomputed from the raw totals and concatenated sample lists in
    ``extras`` — averaging per-worker means would weight workers, not
    events.
    """
    merged = RunMetrics(n=partials[0].n, k=partials[0].k, duration=duration)
    merged.slo_target = partials[0].slo_target
    for f in dataclasses.fields(RunMetrics):
        name = f.name
        if name in _SET_FIELDS or name in _SPECIAL_FIELDS:
            continue
        if name in _MAX_FIELDS:
            setattr(merged, name, max(getattr(p, name) for p in partials))
        else:
            setattr(merged, name, sum(getattr(p, name) for p in partials))

    released = merged.messages_released
    merged.mean_send_hold = (
        sum(e["send_hold_total"] for e in extras) / released if released else 0.0)
    delivered = sum(e["delivered_count"] for e in extras)
    merged.mean_delivery_wait = (
        sum(e["delivery_wait_total"] for e in extras) / delivered
        if delivered else 0.0)
    app_sent = sum(e["app_messages_sent"] for e in extras)
    merged.mean_piggyback_entries = (
        sum(e["piggyback_total"] for e in extras) / app_sent if app_sent else 0.0)
    committed = merged.outputs_committed
    merged.mean_output_latency = (
        sum(e["output_wait_total"] for e in extras) / committed
        if committed else 0.0)
    acked = merged.ctl_acked
    merged.mean_ack_rtt = (
        sum(p.mean_ack_rtt * p.ctl_acked for p in partials) / acked
        if acked else 0.0)

    samples: List[float] = []
    for e in extras:
        samples.extend(e["output_latency_samples"])
    merged.output_latency_count = len(samples)
    merged.output_latency_p50 = sample_percentile(samples, 50.0)
    merged.output_latency_p95 = sample_percentile(samples, 95.0)
    merged.output_latency_p99 = sample_percentile(samples, 99.0)
    if merged.slo_target > 0 and samples:
        within = sum(1 for s in samples if s <= merged.slo_target)
        merged.slo_attained = within / len(samples)

    merged.adaptive_k = any(p.adaptive_k for p in partials)
    if merged.adaptive_k:
        history = [k for e in extras for k in e["k_history"]]
        final = [k for e in extras for k in e["k_final"]]
        merged.k_mean = sample_mean(history if history else final)
        merged.k_final_mean = sample_mean(final)

    merged.mean_recovery_span = mean_recovery_span(
        [event for e in extras for event in e["crash_events"]],
        [event for e in extras for event in e["rollback_events"]])

    merged.violations = [v for p in partials for v in p.violations]
    return merged


class ParallelHarness:
    """Drop-in bench/experiment harness running ``config.parallel_workers``
    worker processes.

    Duck-compatible with :class:`SimulationHarness` where the perf suite
    needs it: ``run(duration)``, ``metrics()``, ``engine.events_executed``,
    ``close()``.  The run is single-shot — ``run`` tears the workers down
    after collecting results.
    """

    def __init__(
        self,
        config: SimConfig,
        behavior: AppBehavior,
        failures: Optional[FailureSchedule] = None,
        workload: Any = None,
        install_until: float = 0.0,
        protocol_factory: Any = None,
    ):
        config.validate()
        if config.parallel_workers < 2:
            raise ValueError(
                "ParallelHarness needs parallel_workers >= 2; "
                "use SimulationHarness for serial runs")
        schedule = failures or FailureSchedule.none()
        for event in schedule:
            if not isinstance(event, (CrashEvent, StorageFaultEvent)):
                raise ValueError(
                    f"parallel execution supports only crash and storage "
                    f"fault events, got {type(event).__name__} (network "
                    f"perturbations require the serial harness)")
        self.config = config
        self.workers = config.parallel_workers
        self._lookahead = lookahead(config)
        self.engine = _EngineView()
        self._duration = 0.0
        self._finished = False
        self._partials: List[RunMetrics] = []
        self._extras: List[Dict[str, Any]] = []
        self._dep_events: List[DepEvent] = []
        self.committed_outputs: List[Tuple[float, int, Any]] = []
        self.violations: List[str] = []

        ctx = multiprocessing.get_context("fork")
        self._conns = []
        self._procs = []
        for worker_id in range(self.workers):
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=worker_main,
                args=(child, worker_id, self.workers, config, behavior,
                      schedule, workload, install_until, protocol_factory),
                daemon=True,
            )
            proc.start()
            child.close()
            self._conns.append(parent)
            self._procs.append(proc)
        self._arena_names: Dict[int, str] = {}
        for worker_id, name in enumerate(self._collect()):
            if name is not None:
                self._arena_names[worker_id] = name
        self._peeks: List[Optional[float]] = [None] * self.workers
        self._nows: List[float] = [0.0] * self.workers
        #: Barrier statistics (exposed for perf analysis and tests).
        self.epochs = 0
        self.cross_messages = 0

    # -- worker plumbing -------------------------------------------------------

    def _collect(self) -> List[Any]:
        replies = []
        for worker_id, conn in enumerate(self._conns):
            try:
                tag, value = conn.recv()
            except EOFError:
                raise RuntimeError(f"worker {worker_id} died") from None
            if tag == "error":
                raise RuntimeError(f"worker {worker_id} failed: {value}")
            replies.append(value)
        return replies

    def _command_all(self, command: Tuple[str, Any]) -> List[Any]:
        for conn in self._conns:
            conn.send(command)
        return self._collect()

    def _note_run_replies(self, replies: List[Any]) -> List[List[OutboxEntry]]:
        outboxes = []
        for worker_id, (outbox, peek, now) in enumerate(replies):
            self._peeks[worker_id] = peek
            self._nows[worker_id] = now
            outboxes.append(outbox)
        return outboxes

    def _route(self, outboxes: List[List[OutboxEntry]]) -> None:
        """Exchange phase: group arrivals by destination worker, order
        them canonically, and insert before anyone runs again."""
        groups: List[List[OutboxEntry]] = [[] for _ in range(self.workers)]
        for outbox in outboxes:
            self.cross_messages += len(outbox)
            for entry in outbox:
                groups[entry[5] % self.workers].append(entry)
        pending = []
        for worker_id, group in enumerate(groups):
            if not group:
                continue
            group.sort(key=_merge_key)
            self._conns[worker_id].send(("insert", group))
            pending.append(worker_id)
        for worker_id in pending:
            tag, peek = self._conns[worker_id].recv()
            if tag == "error":
                raise RuntimeError(f"worker {worker_id} failed: {peek}")
            self._peeks[worker_id] = peek

    def _drain(self) -> None:
        """Epoch loop: run windows of width L until every queue is empty
        and no cross-worker arrival is in flight."""
        while True:
            times = [p for p in self._peeks if p is not None]
            if not times:
                return
            bound = min(times) + self._lookahead
            self.epochs += 1
            replies = self._command_all(("run", bound))
            self._route(self._note_run_replies(replies))

    def _align(self) -> None:
        """Advance every (drained) worker clock to the global frontier, so
        barrier-driven actions (restart, flush, notify) happen at the same
        virtual time the serial run would use."""
        target = max(self._nows + [self._duration])
        self._command_all(("advance", target))
        self._nows = [target] * self.workers
        self.engine.now = target

    def _barrier_action(self, command: str) -> None:
        replies = self._command_all((command, None))
        self._route(self._note_run_replies(replies))
        self._drain()

    # -- main loop -------------------------------------------------------------

    def run(self, duration: float, settle: bool = True) -> None:
        if self._finished:
            raise RuntimeError("ParallelHarness.run is single-shot")
        self._duration = duration
        self._peeks = self._command_all(("start", (duration, self._arena_names)))
        self._drain()
        if settle:
            self._settle()
        self._finish()

    def _settle(self, rounds: int = 4) -> None:
        """Mirror :meth:`SimulationHarness.settle` across the barrier."""
        self._align()
        self._barrier_action("revive_crashed")
        for _ in range(rounds):
            if all(self._command_all(("quiescent", None))):
                break
            self._align()
            self._barrier_action("flush_round")
            self._align()
            self._barrier_action("notify_round")

    def _finish(self) -> None:
        results = self._command_all(("finish", None))
        self._finished = True
        for proc in self._procs:
            proc.join(timeout=30)
        total_events = 0
        final_now = self.engine.now
        self.worker_cpu_s = [result.get("cpu_s", 0.0) for result in results]
        for result in results:
            self._partials.append(result["metrics"])
            self._extras.append(result["extras"])
            self._dep_events.extend(result["dep_events"])
            self.committed_outputs.extend(result["committed"])
            total_events += result["events_executed"]
            final_now = max(final_now, result["now"])
        self.engine.events_executed = total_events
        self.engine.now = final_now
        self.committed_outputs.sort(key=lambda rec: (rec[0], rec[1]))

    # -- results ---------------------------------------------------------------

    def metrics(self) -> RunMetrics:
        if not self._finished:
            raise RuntimeError("metrics() before run() completed")
        merged = merge_metrics(self._partials, self._extras, self._duration)
        self.violations = merged.violations
        return merged

    def dep_events(self) -> List[DepEvent]:
        """The merged ``dep.*`` trace in canonical order (see
        :mod:`repro.parallel.trace`)."""
        return canonical_dep_events(self._dep_events)

    def dump_dep_trace(self, path: str) -> int:
        return dump_canonical(self._dep_events, path)

    # -- teardown --------------------------------------------------------------

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.close()
            except Exception:
                pass
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=10)
        self._conns = []
        self._procs = []
