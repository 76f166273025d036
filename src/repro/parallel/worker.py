"""The worker side of epoch-parallel execution.

Each worker OS process runs a :class:`_WorkerHarness` — a full
:class:`~repro.runtime.harness.SimulationHarness` over all ``n`` protocol
instances, of which it *owns* only the local slice (``pid % workers ==
worker_id``, matching :class:`~repro.sim.shard.ShardedEngine` placement).
Through :meth:`SimulationHarness.owns` the base harness gives only owned
hosts timers, workload injections, failure events, settle rounds and
metrics; the hosts themselves are the same
:class:`~repro.runtime.harness.ProcessHost` the serial run uses.  What
this module adds is the epoch plumbing: the :class:`WorkerNetwork` exports
any transmission addressed to a remote pid into the epoch outbox instead
of scheduling it locally, and :func:`worker_main` answers the runner's
barrier commands.

Determinism contract (what makes the merged run bit-identical to serial
sharded execution):

- all named rng streams are derived from the root seed, and every stream
  is drawn *only* on the worker that owns its process or channel —
  workload installation runs identically in every worker (consuming the
  same draws), channel latencies are drawn at the sender's worker, and
  notify-fanout peers at the notifying pid's worker;
- workload injections consume the global injection-sequence counter in
  install order in every worker, so message ids match the serial run even
  though each worker schedules only its local subset;
- within a worker, events are fired in ``(time, priority, seq)`` order
  exactly as the serial engine would fire the same subsequence.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import replace
from typing import Any, Dict, List, Optional, Tuple

from repro.failures.injector import FailureSchedule
from repro.net.message import LogProgressNotification
from repro.net.network import Network
from repro.parallel import shm as shm_mod
from repro.parallel.shm import ArenaMap, ShmSnapshotRef, SnapshotArena
from repro.runtime.config import SimConfig
from repro.runtime.harness import SimulationHarness

#: One cross-worker delivery: ``(arrival, priority, gen_time, src,
#: counter, dst, payload, label)``.  The first five fields are the
#: canonical barrier-merge sort key; ``counter`` is a per-worker tiebreak
#: that preserves each sender's generation order.
OutboxEntry = Tuple[float, int, float, int, int, int, Any, Optional[str]]

#: Engine-step safety net per epoch (mirrors the serial harness budget).
MAX_EPOCH_EVENTS = 20_000_000

#: The barrier actions of a settle, named after the
#: :class:`~repro.runtime.harness.SimulationHarness` methods they run.
SETTLE_STEPS = ("revive_crashed", "flush_round", "notify_round")

#: Sentinel distinguishing "not yet staged" from "staging declined".
_UNSTAGED = object()


def worker_config(config: SimConfig) -> SimConfig:
    """The per-worker view of a parallel run's config: in-process serial
    execution, no inline oracle (certification is post-hoc from ``dep.*``
    traces), single-heap engine (worker-local order equals the sharded
    engine's per-shard order)."""
    return replace(
        config,
        shards=1,
        parallel_workers=0,
        oracle_enabled=False,
        check_invariants=False,
    )


class WorkerNetwork(Network):
    """Network that exports remote-destination deliveries to the outbox."""

    def __init__(self, *args: Any, worker_id: int, workers: int,
                 **kwargs: Any):
        super().__init__(*args, **kwargs)
        self._worker_id = worker_id
        self._workers = workers
        self.outbox: List[OutboxEntry] = []
        self._outbox_counter = itertools.count()

    def _deliver_at(self, arrival: float, src: int, dst: int, payload: Any,
                    label: Optional[str] = None) -> None:
        if dst % self._workers == self._worker_id:
            super()._deliver_at(arrival, src, dst, payload, label=label)
            return
        self.outbox.append((arrival, 0, self.engine.now, src,
                            next(self._outbox_counter), dst, payload, label))


class _WorkerHarness(SimulationHarness):
    """One worker's shard of the deployment (all hosts built, local slice
    owned)."""

    def __init__(self, config: SimConfig, behavior: Any,
                 failures: Optional[FailureSchedule], worker_id: int,
                 workers: int, protocol_factory: Any = None):
        self._worker_id = worker_id
        self._workers = workers
        kwargs = {}
        if protocol_factory is not None:
            kwargs["protocol_factory"] = protocol_factory
        super().__init__(worker_config(config), behavior,
                         failures=failures, **kwargs)
        self.arena: Optional[SnapshotArena] = None
        self.arenas: Optional[ArenaMap] = None
        if shm_mod._np is not None:
            self.arena = SnapshotArena()

    # -- construction overrides ------------------------------------------------

    def _build_network(self, config, faults, reliable_config):
        base = super()._build_network(config, faults, reliable_config)
        return WorkerNetwork(
            n=config.n,
            engine=self.engine,
            rngs=self.rngs,
            latency=base._latency,
            control_latency=base._control_latency,
            fifo=config.fifo,
            tracer=self.tracer,
            faults=faults,
            reliable_config=reliable_config,
            worker_id=self._worker_id,
            workers=self._workers,
        )

    def owns(self, pid: int) -> bool:
        return pid % self._workers == self._worker_id

    # -- epoch protocol --------------------------------------------------------

    def attach_arenas(self, names: Dict[int, str]) -> None:
        self.arenas = ArenaMap(names, self._worker_id, self.arena)

    def begin(self, duration: float) -> None:
        # CPU accounting starts here so the reported figure covers the
        # run phase only — construction/install happen before the timed
        # region of a bench run (see perf.bench.run_scenario).
        self._cpu_mark = time.process_time()
        super().begin(duration)

    def run_epoch(self, bound: Optional[float]) -> None:
        """Fire every pending event with time strictly below ``bound``
        (or all of them when ``bound`` is None — the drain phases)."""
        if self.arena is not None:
            # Fence: the runner's two-phase barrier guarantees every
            # receiver materialized last epoch's staged snapshots before
            # any worker enters this epoch, so recycling is safe.
            self.arena.reset()
        engine = self.engine
        fired = 0
        while True:
            next_time = engine._peek_time()
            if next_time is None or (bound is not None and next_time >= bound):
                return
            engine.step()
            fired += 1
            if fired > MAX_EPOCH_EVENTS:
                raise RuntimeError(
                    f"exceeded {MAX_EPOCH_EVENTS} events in one epoch; "
                    "possible livelock")

    def take_outbox(self) -> List[OutboxEntry]:
        """Drain the cross-worker outbox, staging large dense snapshot
        payloads into this worker's shared-memory arena."""
        outbox, self.network.outbox = self.network.outbox, []
        if self.arena is None:
            return outbox
        staged: List[OutboxEntry] = []
        # One notify() fans a single snapshot out to many destinations;
        # stage the shared columns once and reuse the descriptor.
        seen: Dict[int, Optional[ShmSnapshotRef]] = {}
        for entry in outbox:
            payload = entry[6]
            if isinstance(payload, LogProgressNotification):
                key = id(payload.table)
                ref = seen.get(key, _UNSTAGED)
                if ref is _UNSTAGED:
                    ref = shm_mod.stage_snapshot(self.arena, self._worker_id,
                                                 payload.table)
                    seen[key] = ref
                if ref is not None:
                    payload = LogProgressNotification(payload.origin, ref)
                    entry = entry[:6] + (payload, entry[7])
            staged.append(entry)
        return staged

    def insert_arrivals(self, entries: List[OutboxEntry]) -> None:
        """Insert barrier-merged cross-worker arrivals, in the canonical
        order the coordinator sorted them into."""
        # Refs to the same staged block share one materialized snapshot —
        # mirroring the serial run, where every destination of one
        # notify() fanout receives the same (read-only) snapshot object.
        cache: Dict[ShmSnapshotRef, Any] = {}
        for arrival, priority, _gen, _src, _counter, dst, payload, label in entries:
            payload = self._materialize(payload, cache)
            self.engine.schedule_at_raw(
                arrival, self.network._arrive, (dst, payload),
                priority=priority, label=label, shard=dst,
            )

    def _materialize(self, payload: Any, cache: Dict[ShmSnapshotRef, Any]) -> Any:
        if (isinstance(payload, LogProgressNotification)
                and isinstance(payload.table, ShmSnapshotRef)):
            if self.arenas is None:
                raise RuntimeError("shm ref received before attach_arenas")
            ref = payload.table
            snap = cache.get(ref)
            if snap is None:
                snap = self.arenas.materialize(ref)
                cache[ref] = snap
            return LogProgressNotification(payload.origin, snap)
        return payload

    def peek(self) -> Optional[float]:
        return self.engine._peek_time()

    def epoch_reply(self) -> Tuple[List[OutboxEntry], Optional[float], float]:
        """What the runner needs after any step that may have sent."""
        return self.take_outbox(), self.peek(), self.engine.now

    # -- results ---------------------------------------------------------------

    def collect_results(self) -> Dict[str, Any]:
        """Everything the coordinator needs: a local-slice metrics partial
        plus the raw totals mean/percentile fields must be recomputed
        from, the local ``dep.*`` trace, and the committed outputs."""
        partial = self.metrics()
        local = self.owned
        controllers = [h.controller for h in local if h.controller is not None]
        extras = {
            "send_hold_total": sum(
                h.protocol.stats.send_hold_time_total for h in local),
            "delivery_wait_total": sum(
                h.protocol.stats.delivery_wait_total for h in local),
            "delivered_count": sum(
                h.protocol.stats.deliveries - h.protocol.stats.replayed_deliveries
                for h in local),
            "output_wait_total": sum(
                h.protocol.stats.output_wait_total for h in local),
            "piggyback_total": self.network.piggyback_entries_total,
            "app_messages_sent": self.network.app_messages_sent,
            "output_latency_samples": list(self.output_latency_samples),
            "crash_events": list(self.crash_events),
            "rollback_events": list(self.rollback_events),
            "k_history": [k for c in controllers for _, k in c.history],
            "k_final": [float(c.k) for c in controllers],
            "k_decisions": sum(len(c.decisions) - 1 for c in controllers),
        }
        # Remote hosts run initialize() in every worker; keep only the
        # owning worker's copy of each process's dep events.
        dep_events = [
            (e.time, e.category, e.process, e.data)
            for e in self.tracer.events
            if e.category.startswith("dep.")
            and e.process is not None and self.owns(e.process)
        ]
        committed = [
            (now, record.process, record.output_id)
            for now, record in self.committed_outputs
        ]
        return {
            "worker": self._worker_id,
            "metrics": partial,
            "extras": extras,
            "dep_events": dep_events,
            "committed": committed,
            "events_executed": self.engine.events_executed,
            "now": self.engine.now,
            "cpu_s": time.process_time() - getattr(self, "_cpu_mark", 0.0),
        }

    def close(self) -> None:
        super().close()
        if self.arenas is not None:
            self.arenas.close()
            self.arenas = None
        if self.arena is not None:
            self.arena.close()
            self.arena = None


def worker_main(conn: Any, worker_id: int, workers: int, config: SimConfig,
                behavior: Any, failures: Optional[FailureSchedule],
                workload: Any, install_until: float,
                protocol_factory: Any = None) -> None:
    """Command loop driven by :class:`repro.parallel.runner.ParallelHarness`.

    Runs in a forked child; every command is answered exactly once, and
    ``finish`` replies with the result payload and exits the loop.
    """
    harness = _WorkerHarness(config, behavior, failures, worker_id, workers,
                             protocol_factory=protocol_factory)
    try:
        if workload is not None:
            workload.install(harness, until=install_until)
        arena_name = harness.arena.name if harness.arena is not None else None
        conn.send(("ready", arena_name))
        while True:
            cmd, arg = conn.recv()
            if cmd == "start":
                duration, arena_names = arg
                if arena_names:
                    harness.attach_arenas(arena_names)
                harness.begin(duration)
                conn.send(("ok", harness.peek()))
            elif cmd == "insert":
                harness.insert_arrivals(arg)
                conn.send(("ok", harness.peek()))
            elif cmd == "run":
                harness.run_epoch(arg)
                conn.send(("done", harness.epoch_reply()))
            elif cmd == "advance":
                harness.engine.advance_to(arg)
                conn.send(("ok", None))
            elif cmd in SETTLE_STEPS:
                getattr(harness, cmd)()
                conn.send(("done", harness.epoch_reply()))
            elif cmd == "quiescent":
                conn.send(("ok", harness.quiescent()))
            elif cmd == "finish":
                conn.send(("result", harness.collect_results()))
                return
            else:
                raise RuntimeError(f"unknown command {cmd!r}")
    except BaseException as exc:  # surface worker failures to the runner
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
        raise
    finally:
        harness.close()
