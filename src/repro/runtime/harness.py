"""The simulation harness and the per-process host every driver runs.

:class:`ProcessHost` is the one runtime wrapper around a protocol
instance: it interprets effects, dispatches incoming traffic, runs the
periodic activities the paper assumes (asynchronous flushes, checkpoints,
logging progress notifications, plus the adaptive-K control tick) and
handles crash/restart.  It talks to its environment only through a Clock
and a Transport, so the serial simulation, the parallel workers and the
``repro serve`` workers all run this same class.

:class:`SimulationHarness` builds one simulated deployment around it:

- host one :class:`ProcessHost` per process over the event engine (the
  Clock) and the simulated network (the Transport);
- inject workload traffic (outside-world messages with empty dependency
  vectors) and crash/restart processes per the failure schedule;
- maintain the ground-truth oracle and cross-check protocol claims
  (Theorem 4 on every release, emptiness of revoker sets on every output
  commit, global consistency at quiescence);
- model reliability assumptions: application messages to a crashed process
  are lost (the paper's footnote 3 declares lost in-transit messages out of
  scope); on a reliable network control messages are queued and delivered
  at restart (recovery announcements use reliable broadcast, as in
  Strom-Yemini), while on an unreliable one announcements travel through
  the ack/retransmit layer and timer-driven retransmission covers lost
  application messages.
"""

from __future__ import annotations

import itertools
import math
import shutil
import tempfile
import weakref
from dataclasses import replace
from typing import Any, Callable, List, Optional, Sequence, Set, Tuple

from repro.app.behavior import AppBehavior
from repro.core.depvec import DependencyVector
from repro.core.effects import Effect, MessageDelivered, RestartPerformed, RollbackPerformed, StableProgress
from repro.core.protocol import KOptimisticProcess
from repro.failures.injector import (
    CrashEvent,
    FailureSchedule,
    HealEvent,
    LossEvent,
    PartitionEvent,
    StorageFaultEvent,
)
from repro.net.channel import FixedLatency, UniformLatency
from repro.net.faults import ChannelFaults, NetworkFaultModel
from repro.net.message import (
    AppAck,
    AppMessage,
    ControlAck,
    ControlEnvelope,
    FailureAnnouncement,
    LoggingRequest,
    LogProgressNotification,
)
from repro.net.network import Network
from repro.net.reliable import ReliableConfig
from repro.oracle.graph import DependencyOracle
from repro.runtime.config import SimConfig
from repro.runtime.executor import EffectExecutor, ExecutionHooks
from repro.runtime.metrics import (
    RunMetrics,
    mean_recovery_span,
    sample_mean,
    sample_percentile,
)
from repro.storage.backend import make_backend
from repro.storage.faults import StorageDeadError
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer
from repro.types import MessageId

#: Signature for plugging in baseline protocols.
ProtocolFactory = Callable[[int, SimConfig, AppBehavior, Callable[[], float]], Any]


def protocol_factory_for(cls: type) -> ProtocolFactory:
    """A :data:`ProtocolFactory` that builds ``cls`` (a
    :class:`KOptimisticProcess` subclass) with the standard config-derived
    keyword arguments.  Used for the default protocol, and by the checker's
    deliberately broken mutants (:mod:`repro.check.mutants`)."""

    def factory(
        pid: int, config: SimConfig, behavior: AppBehavior,
        now_fn: Callable[[], float],
    ) -> KOptimisticProcess:
        return cls(
            pid=pid,
            n=config.n,
            k=config.resolved_k(),
            behavior=behavior,
            storage=make_backend(config, pid),
            seed=config.seed,
            now_fn=now_fn,
            nullify_own_on_flush=config.nullify_own_on_flush,
            output_driven_logging=config.output_driven_logging,
            gc_on_checkpoint=config.gc_on_checkpoint,
            retransmit_window=config.retransmit_window,
            retransmit_timeout=config.retransmit_timeout,
            retransmit_backoff=config.retransmit_backoff,
            retransmit_budget=config.retransmit_budget,
            delta_notifications=config.delta_notifications,
        )

    return factory


_default_protocol_factory = protocol_factory_for(KOptimisticProcess)


class _NullOracle:
    """Stand-in for :class:`DependencyOracle` when ``oracle_enabled`` is
    off (very large n, parallel workers).  Absorbs every recording call;
    correctness is then certified post-hoc from ``dep.*`` traces via
    :mod:`repro.oracle.ingest`."""

    total_intervals = 0
    rolled_back_intervals = 0

    def start_process(self, pid: int) -> None:
        pass

    def record_delivery(self, *args: Any) -> None:
        pass

    def mark_stable(self, *args: Any) -> None:
        pass

    def record_recovery(self, *args: Any) -> None:
        pass

    def live_interval(self, pid: int) -> None:
        return None

    def exists(self, interval: Any) -> bool:
        return False

    def check_consistency(self) -> List[str]:
        return []


class _OracleHooks(ExecutionHooks):
    """Executor hooks that maintain the harness's ground-truth oracle and
    evaluate the inline invariant checks (Theorem 4 at release, empty
    revoker set at output commit)."""

    def __init__(self, harness: "SimulationHarness", pid: int):
        self.harness = harness
        self.pid = pid

    def pre_release(self, msg: AppMessage) -> None:
        if self.harness.config.check_invariants and msg.src >= 0:
            self.harness.check_release_bound(msg)

    def pre_commit(self, record: Any) -> None:
        if self.harness.config.check_invariants:
            self.harness.check_output_commit(record)

    def post_commit(self, now: float, record: Any, latency: float) -> None:
        self.harness.committed_outputs.append((now, record))
        self.harness.output_latency_samples.append(latency)

    def on_delivery(self, effect: MessageDelivered) -> None:
        self.harness.oracle.record_delivery(
            self.pid, effect.interval,
            effect.message.src, effect.message.send_interval,
        )

    def on_stable(self, effect: StableProgress) -> None:
        self.harness.oracle.mark_stable(self.pid, effect.through)

    def on_rollback(self, now: float, effect: RollbackPerformed) -> None:
        self.harness.oracle.record_recovery(
            self.pid, effect.restored_to, effect.new_current
        )
        self.harness.rollback_events.append((now, self.pid))

    def on_restart(self, now: float, effect: RestartPerformed) -> None:
        survivor = effect.announcement.end
        # Count lost intervals against the pre-truncation chain tip.
        tip = self.harness.oracle.live_interval(self.pid)
        tip_sii = tip[2] if tip else 0
        self.harness.intervals_lost += max(0, tip_sii - survivor.sii)
        self.harness.oracle.record_recovery(
            self.pid, survivor, effect.new_current
        )


def _controller_for(pid: int, config: SimConfig) -> Any:
    """The adaptive-K controller of process ``pid`` under ``config``."""
    # Lazy: repro.control imports repro.runtime.metrics, and a top-level
    # import would close a cycle through the package __init__s.
    from repro.control import AdaptiveKController, ControllerConfig

    return AdaptiveKController(pid, ControllerConfig(
        k_min=config.k_min,
        k_max=config.resolved_k_max(),
        slo_target=config.slo_output_latency,
        slo_percentile=config.slo_percentile,
        window=config.control_window,
        increase_step=config.k_increase_step,
        decrease_factor=config.k_decrease_factor,
        explore_probability=config.k_explore_probability,
    ), seed=config.seed)


class ProcessHost:
    """One protocol instance and the runtime around it.

    The serial simulation, each parallel worker and each ``repro serve``
    worker run their processes through this one class, over two seams:

    - a **Clock**: ``now``, ``schedule(delay, callback)`` and
      ``defer(callback, label=, shard=)``, which runs ``callback`` behind
      every same-tick delivery — the :class:`~repro.sim.engine.Engine` in
      simulation, a :class:`~repro.backplane.clock.WallClock` in serve;
    - a **Transport** with the :class:`~repro.net.network.Network`
      interface (``send_app``, ``send_control``, ``broadcast_control``,
      ``on_process_crash``, ``on_process_restart``).

    The host owns incoming dispatch (acks, control-envelope dedup, parking
    while down), notification batching and sending (fanout, own-row,
    delta), the adaptive-K controller and its latency samples, fail-stop
    on storage death, crash/restart, the periodic timers and
    outside-world messages.
    """

    def __init__(
        self,
        pid: int,
        protocol: Any,
        config: SimConfig,
        *,
        clock: Any,
        transport: Any,
        tracer: Tracer,
        rngs: RngRegistry,
        hooks: Optional[ExecutionHooks] = None,
        effect_probes: Sequence[Callable[["ProcessHost", Effect], None]] = (),
    ):
        self.pid = pid
        self.protocol = protocol
        self.config = config
        self.clock = clock
        self.transport = transport
        self.tracer = tracer
        self.rngs = rngs
        #: Checker probes run per effect before interpretation (a list the
        #: driver may extend later; empty in normal runs).
        self.effect_probes = effect_probes
        # Drivers resolve the automatic ``ack_layer=None`` before this.
        self.ack_enabled = bool(config.ack_layer)
        self.executor = EffectExecutor(
            pid,
            transport=transport,
            clock=clock,
            tracer=tracer,
            on_retransmit=self._retransmit_timer,
            hooks=hooks,
            dep_trace=config.dep_trace,
        )
        self.down = False
        self.pending_control: List[Any] = []
        #: Same-tick notification fan-in buffer: log-progress notifications
        #: arriving at one tick are merged in a single batched pass (one
        #: table merge + one release/commit scan) by a deferred drain.
        self._notif_batch: List[LogProgressNotification] = []
        self.lost_app_messages = 0
        self.crash_count = 0
        #: Adaptive-K controller (None unless ``config.adaptive_k``); its
        #: ``recommend`` is the protocol's per-message ``k_policy``.
        self.controller: Optional[Any] = None
        #: Latency samples accumulated since the last control tick.
        self.commit_waits: List[float] = []
        if config.adaptive_k:
            self.controller = _controller_for(pid, config)
            # Every message the application sends without an explicit
            # bound now carries the controller's current K (Section 4.2's
            # per-message path keeps receivers correct).
            protocol.k_policy = self.controller.recommend
            self.executor.latency_sink = self.commit_waits
        #: Times the storage backend declared itself dead (fail-stop).
        self.storage_deaths = 0
        #: Transport-level dedup of reliable control envelopes by
        #: ``(src, seq)``.  Survives crashes: the transport endpoint's
        #: identity persists, and a seen envelope was already handed to the
        #: protocol (announcements are logged synchronously on receipt).
        self._ctl_seen: Set[Tuple[int, int]] = set()

    # -- incoming traffic ---------------------------------------------------

    def incoming(self, payload: Any) -> None:
        try:
            self._incoming(payload)
        except StorageDeadError:
            self._storage_failed("incoming")

    def _incoming(self, payload: Any) -> None:
        if self.down:
            if isinstance(payload, (ControlEnvelope, AppAck)):
                # The transport endpoint died with the process: no ack is
                # sent, so the sender's retransmission timer keeps the
                # envelope alive until we answer after restart.
                self.tracer.record(
                    self.clock.now, "net.lost", self.pid, msg=str(payload),
                )
            elif isinstance(payload, (FailureAnnouncement, LogProgressNotification)):
                self.pending_control.append(payload)
            else:
                # Logging requests are best-effort hints: dropping one only
                # delays an output until the next periodic notification.
                self.lost_app_messages += isinstance(payload, AppMessage)
                self.tracer.record(
                    self.clock.now, "net.lost", self.pid,
                    msg=str(getattr(payload, "msg_id", payload)),
                )
            return
        if isinstance(payload, ControlEnvelope):
            # Always ack — the previous ack may itself have been lost —
            # but hand each envelope to the protocol exactly once.
            self.transport.send_control(
                self.pid, payload.src,
                ControlAck(payload.seq, self.pid, payload.src),
            )
            key = (payload.src, payload.seq)
            if key in self._ctl_seen:
                return
            self._ctl_seen.add(key)
            self.incoming(payload.payload)
            return
        if isinstance(payload, AppAck):
            self.execute(self.protocol.on_ack(payload))
            return
        if isinstance(payload, AppMessage):
            effects = self.protocol.on_receive(payload)
            if self.ack_enabled and payload.src >= 0:
                self.transport.send_control(
                    self.pid, payload.src,
                    AppAck(payload.msg_id, self.pid, payload.src),
                )
        elif isinstance(payload, FailureAnnouncement):
            self.tracer.record(
                self.clock.now, "ann.receive", self.pid, ann=str(payload)
            )
            effects = self.protocol.on_failure_announcement(payload)
        elif isinstance(payload, LogProgressNotification):
            # Batch same-tick notifications: the first arrival defers a
            # drain behind every other same-tick delivery, so N
            # notifications landing on one tick cost one table merge and
            # one release/commit scan instead of N.
            self._notif_batch.append(payload)
            if len(self._notif_batch) == 1:
                self.clock.defer(self._drain_notifications,
                                 label=f"notify-drain:{self.pid}",
                                 shard=self.pid)
            return
        elif isinstance(payload, LoggingRequest):
            effects = self.protocol.on_logging_request(payload)
        else:
            raise TypeError(f"unexpected payload {payload!r}")
        self.execute(effects)

    def inject(self, payload: Any, seq: int) -> None:
        """Deliver an outside-world message now.

        Environment messages carry an empty dependency vector (the outside
        world has no rollback-able state) and a unique id ``seq`` drawn
        from a virtual sender ``-1``.
        """
        self.incoming(AppMessage(
            msg_id=MessageId(-1, 0, 0, seq),
            src=-1,
            dst=self.pid,
            payload=payload,
            tdv=DependencyVector(self.config.n),
        ))

    def idle(self) -> bool:
        """Up, and holding no undelivered, unreleased or uncommitted
        traffic."""
        protocol = self.protocol
        return not (self.down or protocol.send_buffer
                    or protocol.receive_buffer or len(protocol.output_buffer))

    # -- effect interpretation ------------------------------------------------

    def execute(self, effects: List[Effect]) -> None:
        """Interpret protocol effects via the shared executor.

        The checker's effect probes (when any are registered) run per
        effect *before* interpretation; the indirection is built only on
        the instrumented path to keep normal runs lean."""
        effect_probes = self.effect_probes
        probe = None
        if effect_probes:
            def probe(effect: Effect) -> None:
                for p in effect_probes:
                    p(self, effect)
        self.executor.execute(effects, probe)

    def _drain_notifications(self) -> None:
        """Apply every notification batched at the current tick in one
        pass.  The table merge is a monotone elementwise maximum, so one
        merged application is equivalent to processing the notifications
        one by one — only cheaper."""
        batch, self._notif_batch = self._notif_batch, []
        if not batch:
            return
        if self.down:
            # Crashed between batching and the drain: same treatment as
            # notifications that arrive while down — replay at restart.
            self.pending_control.extend(batch)
            return
        try:
            self.execute(self.protocol.on_log_notifications(batch))
        except StorageDeadError:
            self._storage_failed("notification")

    def _retransmit_timer(self, msg_id: MessageId) -> None:
        if self.down:
            return  # crash cleared _unacked; the timer dies with it
        self.execute(self.protocol.on_retransmit_timer(msg_id))

    # -- periodic activities --------------------------------------------------

    def start_timers(self, horizon: float = math.inf) -> None:
        """Start the periodic flush, checkpoint, notification and control
        activities, phase-staggered by pid so processes do not act in
        lockstep.  No timer is scheduled to fire past ``horizon``."""
        config = self.config
        phase = (self.pid + 1) / (config.n + 1)
        self._every(config.flush_interval, phase, self.flush, horizon)
        self._every(config.checkpoint_interval, phase, self.checkpoint,
                    horizon)
        self._every(config.notify_interval, phase, self.notify, horizon)
        if self.controller is not None:
            self._every(config.control_interval, phase, self.control_tick,
                        horizon)

    def _every(self, interval: float, phase: float,
               action: Callable[[], None], horizon: float) -> None:
        clock = self.clock

        def fire() -> None:
            action()
            if clock.now + interval <= horizon:
                clock.schedule(interval, fire)

        first = interval * phase
        if first <= horizon:
            clock.schedule(first, fire)

    def flush(self) -> None:
        if self.down:
            return
        try:
            self.execute(self.protocol.flush())
        except StorageDeadError:
            self._storage_failed("flush")

    def checkpoint(self) -> None:
        if self.down:
            return
        try:
            self.execute(self.protocol.checkpoint())
        except StorageDeadError:
            self._storage_failed("checkpoint")

    def notify(self) -> None:
        if self.down:
            return
        config = self.config
        own_only = not config.gossip_log_tables
        delta = getattr(self.protocol, "delta_notifications", False)
        if not delta:
            notif = self.protocol.make_log_notification(own_only=own_only)
        fanout = config.notify_fanout
        if fanout is None:
            if delta:
                # Delta encoding is per-destination (each peer has its own
                # changelog cursor), so the broadcast unrolls into per-dst
                # sends in the same order broadcast_control would use.
                for dst in range(config.n):
                    if dst == self.pid:
                        continue
                    self.transport.send_control(
                        self.pid, dst,
                        self.protocol.make_log_notification_for(
                            dst, own_only=own_only),
                    )
            else:
                self.transport.broadcast_control(self.pid, notif)
            return
        n = config.n
        rng = self.rngs.stream(f"notify/{self.pid}")
        # Sample peer *indices* and skip over our own pid arithmetically:
        # same draws as sampling an explicit peers list, without building
        # an (n-1)-element list per notification.
        for idx in rng.sample(range(n - 1), min(fanout, n - 1)):
            dst = idx if idx < self.pid else idx + 1
            if delta:
                notif = self.protocol.make_log_notification_for(
                    dst, own_only=own_only)
            self.transport.send_control(self.pid, dst, notif)

    def control_tick(self) -> None:
        """One adaptive-K observation: feed the controller the latency
        samples gathered since the last tick plus the cumulative
        revocation evidence (rollbacks, restarts, orphan and output
        discards — everything that proves optimism recently cost work)."""
        if self.controller is None or self.down:
            return
        from repro.control import Observation

        stats = self.protocol.stats
        drained = tuple(self.commit_waits)
        self.commit_waits.clear()
        obs = Observation(
            time=self.clock.now,
            revocations=(stats.rollbacks + stats.restarts
                         + stats.orphans_discarded + stats.outputs_discarded),
            commit_waits=drained,
        )
        new_k = self.controller.observe(obs)
        self.tracer.record(self.clock.now, "control.k", self.pid, k=new_k)

    # -- failure handling -----------------------------------------------------

    def _storage_failed(self, context: str) -> None:
        """The backend declared itself dead mid-operation: degrade to a
        clean fail-stop crash handled by the normal Restart path (whose
        recovery scan also revives the backend)."""
        self.storage_deaths += 1
        self.tracer.record(
            self.clock.now, "storage.dead", self.pid, context=context
        )
        self.crash()

    def crash(self) -> None:
        if self.down:
            return  # already down; schedule says crash a dead process: no-op
        self.down = True
        self.crash_count += 1
        self.protocol.crash()
        # Fail-stop: a dead process transmits nothing, including control
        # retransmissions queued on its behalf before the crash.
        self.transport.on_process_crash(self.pid)
        self.tracer.record(self.clock.now, "failure.crash", self.pid)
        self.clock.schedule(self.config.restart_delay, self.restart)

    def restart(self) -> None:
        if not self.down:
            return
        try:
            effects = self.protocol.restart()
        except StorageDeadError:
            # The journal could not be brought back (or a sync write during
            # Restart itself died).  Stay down and retry: injected faults
            # are consumed as they fire, so a retry eventually succeeds.
            self.storage_deaths += 1
            self.tracer.record(
                self.clock.now, "storage.dead", self.pid, context="restart",
            )
            if not self.protocol.failed:
                # Restart died partway through coming back up: crash the
                # protocol again so the next attempt starts from a clean
                # failed state.
                self.protocol.crash()
            self.clock.schedule(self.config.restart_delay, self.restart)
            return
        self.down = False
        # Back alive: pre-crash reliable-control envelopes may resume their
        # retry cycle (destinations deduplicate, so re-sends are harmless).
        self.transport.on_process_restart(self.pid)
        self.execute(effects)
        # Replay forced nothing new to disk, but the stable prefix is intact;
        # deliver the control traffic that arrived while we were down.
        pending, self.pending_control = self.pending_control, []
        for payload in pending:
            self.incoming(payload)


class SimulationHarness:
    """Builds and runs one simulated deployment."""

    def __init__(
        self,
        config: SimConfig,
        behavior: AppBehavior,
        failures: Optional[FailureSchedule] = None,
        protocol_factory: ProtocolFactory = _default_protocol_factory,
    ):
        config.validate()
        self.failures = failures or FailureSchedule.none()
        # Resolve the unreliable-network stack: a fault model whenever the
        # config rates or the schedule can perturb traffic, and (unless
        # forced) the ack/retransmit layer alongside it.
        unreliable = config.unreliable() or self.failures.has_network_events()
        self.ack_enabled = (
            unreliable if config.ack_layer is None else config.ack_layer
        )
        config = replace(config, ack_layer=self.ack_enabled)
        if self.ack_enabled and config.retransmit_timeout == 0:
            config = replace(config, retransmit_timeout=config.ctl_rto)
        # The file-log backend needs a directory; resolve an unset one to a
        # temporary directory owned (and eventually removed) by the harness.
        self._owned_storage_dir: Optional[str] = None
        if config.storage_backend == "filelog" and config.storage_dir is None:
            self._owned_storage_dir = tempfile.mkdtemp(prefix="repro-filelog-")
            config = replace(config, storage_dir=self._owned_storage_dir)
            # Backstop cleanup if close() is never called; close() is still
            # the polite way to release file handles promptly.
            self._dir_finalizer = weakref.finalize(
                self, shutil.rmtree, self._owned_storage_dir, True
            )
        self.config = config
        self.behavior = behavior
        if config.shards > 1:
            from repro.sim.shard import ShardedEngine

            self.engine: Engine = ShardedEngine(config.shards)
        else:
            self.engine = Engine()
        self.rngs = RngRegistry(config.seed)
        self.tracer = Tracer(enabled=config.trace_enabled,
                             prefix=config.trace_prefix)
        self.oracle: Any = (DependencyOracle(config.n) if config.oracle_enabled
                            else _NullOracle())
        faults = None
        if unreliable:
            faults = NetworkFaultModel(
                self.rngs,
                ChannelFaults(
                    drop=config.drop_rate,
                    duplicate=config.duplicate_rate,
                    reorder=config.reorder_rate,
                    reorder_spread=config.reorder_spread,
                ),
                apply_to_control=config.faults_on_control,
            )
        reliable_config = None
        if self.ack_enabled:
            reliable_config = ReliableConfig(
                rto=config.ctl_rto,
                backoff=config.ctl_backoff,
                rto_max=config.ctl_rto_max,
                budget=config.ctl_budget,
            )
        self.network = self._build_network(config, faults, reliable_config)
        #: Probe layer (repro.check): callables invoked per executed
        #: effect and per engine step.  Empty in normal runs.
        self.effect_probes: List[Callable[["ProcessHost", Effect], None]] = []
        self._step_probes: List[Callable[["SimulationHarness"], None]] = []
        self.hosts: List[ProcessHost] = []
        for pid in range(config.n):
            protocol = protocol_factory(pid, config, behavior, lambda: self.engine.now)
            host = ProcessHost(
                pid, protocol, config,
                clock=self.engine, transport=self.network, tracer=self.tracer,
                rngs=self.rngs, hooks=_OracleHooks(self, pid),
                effect_probes=self.effect_probes,
            )
            self.hosts.append(host)
            self.network.register(pid, host.incoming)
        #: The hosts this driver runs: timers, injections, failures, settle
        #: rounds and metrics cover these.  All of them when serial; a
        #: parallel worker owns one slice (see :meth:`owns`).
        self.owned: List[ProcessHost] = [
            host for host in self.hosts if self.owns(host.pid)]
        for host in self.hosts:
            host.execute(host.protocol.initialize())
            self.oracle.start_process(host.pid)

        self.committed_outputs: List[Tuple[float, Any]] = []
        #: One output-commit latency sample per committed output:
        #: end-to-end when the payload stamps ``t0``, buffer wait otherwise.
        self.output_latency_samples: List[float] = []
        self.rollback_events: List[Tuple[float, int]] = []
        self.crash_events: List[Tuple[float, int]] = []
        self.partition_events: List[Tuple[float, str]] = []
        self.violations: List[str] = []
        self.intervals_lost = 0
        #: Largest potential-revoker set seen at any release (Theorem 4's
        #: quantity; must stay <= K on every release of an app message).
        self.max_release_revokers = 0
        self._inject_seq = itertools.count()
        self._horizon = 0.0

        # Handles are retained so run() can cancel events scheduled beyond
        # the horizon (they must not fire mid-settle).
        self._failure_handles: List[Tuple[Any, Any]] = []
        for event in self.failures:
            if (isinstance(event, (CrashEvent, StorageFaultEvent))
                    and not self.owns(event.pid)):
                continue
            self._failure_handles.append(
                (event, self.engine.schedule_at(
                    event.time, self._make_failure(event),
                    label=f"failure:{type(event).__name__}"))
            )

    def owns(self, pid: int) -> bool:
        """Whether this driver runs process ``pid`` (always, serially)."""
        return True

    def _build_network(
        self,
        config: SimConfig,
        faults: Optional[NetworkFaultModel],
        reliable_config: Optional[ReliableConfig],
    ) -> Network:
        """Construct the transport.  Factory method so the parallel worker
        harness (:mod:`repro.parallel.worker`) can substitute a network
        that exports cross-worker sends instead of delivering locally."""
        return Network(
            n=config.n,
            engine=self.engine,
            rngs=self.rngs,
            latency=UniformLatency(
                max(0.0, config.msg_latency_base - config.msg_latency_jitter),
                config.msg_latency_base + config.msg_latency_jitter,
                per_entry=config.per_entry_latency,
            ),
            control_latency=FixedLatency(config.control_latency),
            fifo=config.fifo,
            tracer=self.tracer,
            faults=faults,
            reliable_config=reliable_config,
        )

    # -- probe layer ------------------------------------------------------------

    def add_step_probe(self, probe: Callable[["SimulationHarness"], None]) -> None:
        """Register a callback to run after *every* engine event.

        Probes receive the harness and typically append to
        :attr:`violations`; the systematic checker (:mod:`repro.check`)
        uses this to evaluate invariants at step granularity.
        """
        self._step_probes.append(probe)
        if self.engine.post_step is None:
            self.engine.post_step = self._run_step_probes

    def add_effect_probe(
        self, probe: Callable[["ProcessHost", Effect], None]
    ) -> None:
        """Register a callback invoked for each protocol effect, just
        before the harness interprets it."""
        self.effect_probes.append(probe)

    def _run_step_probes(self) -> None:
        for probe in self._step_probes:
            probe(self)

    # -- workload injection ---------------------------------------------------

    def inject_at(self, time: float, dst: int, payload: Any) -> None:
        """Schedule an outside-world message for ``dst`` at ``time``.

        The injection sequence number is drawn *now*, at schedule time,
        for every injection, owned or not: workloads install injections
        in one deterministic order, so the assignment is identical whether
        one harness schedules all of them or each parallel worker
        schedules only its own subset."""
        seq = next(self._inject_seq)
        if not self.owns(dst):
            return
        host = self.hosts[dst]
        self.engine.schedule_at(time, lambda: host.inject(payload, seq),
                                label=f"inject->{dst}", shard=dst)

    def inject_now(self, dst: int, payload: Any) -> None:
        """Deliver an outside-world message to ``dst`` immediately."""
        self.hosts[dst].inject(payload, next(self._inject_seq))

    # -- failure plumbing ------------------------------------------------------

    def _make_crash(self, pid: int) -> Callable[[], None]:
        def crash() -> None:
            self.crash_events.append((self.engine.now, pid))
            self.hosts[pid].crash()

        return crash

    def _make_failure(self, event: Any) -> Callable[[], None]:
        """Map one schedule entry to its engine callback."""
        if isinstance(event, CrashEvent):
            return self._make_crash(event.pid)
        if isinstance(event, PartitionEvent):
            def partition() -> None:
                self.network.faults.start_partition(event.islands,
                                                    self.engine.now)
                self.partition_events.append((self.engine.now, "partition"))
                self.tracer.record(self.engine.now, "net.partition", -1,
                                   islands=str(event.islands))

            return partition
        if isinstance(event, HealEvent):
            def heal() -> None:
                self.network.faults.heal(self.engine.now)
                self.partition_events.append((self.engine.now, "heal"))
                self.tracer.record(self.engine.now, "net.heal", -1)

            return heal
        if isinstance(event, LossEvent):
            def loss() -> None:
                self.network.faults.set_rates(drop=event.drop,
                                              duplicate=event.duplicate,
                                              reorder=event.reorder)
                self.tracer.record(self.engine.now, "net.loss_rates", -1,
                                   drop=event.drop, duplicate=event.duplicate,
                                   reorder=event.reorder)

            return loss
        if isinstance(event, StorageFaultEvent):
            def storage_fault() -> None:
                self.tracer.record(self.engine.now, "storage.fault", event.pid,
                                   kind=event.kind, count=event.count)
                self.hosts[event.pid].protocol.storage.arm_fault(event)

            return storage_fault
        raise TypeError(f"unknown failure event {event!r}")

    # -- invariant checks --------------------------------------------------------

    def check_release_bound(self, msg: AppMessage) -> None:
        """Theorem 4: at release, at most K processes can revoke ``msg``."""
        interval = (msg.src, msg.send_interval.inc, msg.send_interval.sii)
        if not self.oracle.exists(interval):
            return  # replay re-send of a pre-crash interval; already checked
        revokers = self.oracle.potential_revokers(interval)
        if len(revokers) > self.max_release_revokers:
            self.max_release_revokers = len(revokers)
        # A message carrying its own bound (Section 4.2) is judged against
        # that bound, not the system-wide K — the global default applies
        # only to unstamped messages.
        k = (self.config.resolved_k() if msg.k_limit is None
             else msg.k_limit)
        if len(revokers) > k:
            self.violations.append(
                f"Theorem 4 violated: {msg.msg_id} released with "
                f"{len(revokers)} potential revokers {sorted(revokers)} > K={k}"
            )

    def check_output_commit(self, record: Any) -> None:
        """A committed output must have an empty potential-revoker set."""
        interval = (record.process, record.send_interval.inc, record.send_interval.sii)
        if not self.oracle.exists(interval):
            return
        revokers = self.oracle.potential_revokers(interval)
        if revokers:
            self.violations.append(
                f"output {record.output_id} committed with live revokers "
                f"{sorted(revokers)}"
            )
        if self.oracle.is_orphan(interval):
            self.violations.append(
                f"output {record.output_id} committed from orphan interval"
            )

    # -- main loop -------------------------------------------------------------

    def run(self, duration: float, settle: bool = True) -> None:
        """Run for ``duration`` virtual time units, then (optionally) settle:
        drain in-flight traffic and force enough flush/notify rounds that
        every held message is either released or discarded."""
        self.begin(duration)
        self.engine.run(until=duration, max_events=20_000_000)
        if settle:
            self.settle()

    def begin(self, duration: float) -> None:
        """Fix the horizon and start the owned hosts' periodic timers."""
        self._horizon = duration
        # Failure events beyond the horizon must not fire: settle() drains
        # the queue past ``duration``, and a stray crash mid-settle would
        # wreck quiescence (and the invariant checks that assume it).
        for event, handle in self._failure_handles:
            if event.time > duration:
                handle.cancel()
        for host in self.owned:
            host.start_timers(duration)

    def settle(self, rounds: int = 4) -> None:
        """Quiesce the system after the timed phase."""
        # A partition still in force would hold traffic hostage forever;
        # heal it so quiescence is reachable (and partition_time is closed).
        if self.network.faults is not None:
            self.network.faults.heal(self.engine.now)
        self.engine.run(max_events=20_000_000)
        self.revive_crashed()
        self.engine.run(max_events=20_000_000)
        for _ in range(rounds):
            # The flush/notify rounds exist only to dislodge held traffic;
            # once every buffer is empty another round cannot change
            # anything (the engine queue is already drained), so stop.
            if self.quiescent():
                break
            self.flush_round()
            self.engine.run(max_events=20_000_000)
            self.notify_round()
            self.engine.run(max_events=20_000_000)
        if self.config.check_invariants:
            self.violations.extend(self.oracle.check_consistency())

    # Settle steps, one per barrier action of the parallel runner.

    def revive_crashed(self) -> None:
        """Restart owned processes still down (a crash near the horizon)."""
        for host in self.owned:
            if host.down:
                host.restart()

    def flush_round(self) -> None:
        for host in self.owned:
            host.flush()

    def notify_round(self) -> None:
        for host in self.owned:
            host.notify()

    def quiescent(self) -> bool:
        """True when every owned host is idle (with the event queue
        drained, nothing can move again)."""
        return all(host.idle() for host in self.owned)

    # -- teardown --------------------------------------------------------------

    def close(self) -> None:
        """Release storage resources: close backend file handles and remove
        a harness-owned temporary journal directory.  Idempotent; runs with
        the model backend too (where it is a no-op)."""
        for host in self.hosts:
            try:
                host.protocol.storage.close()
            except Exception:
                pass
        if self._owned_storage_dir is not None:
            shutil.rmtree(self._owned_storage_dir, ignore_errors=True)
            self._owned_storage_dir = None

    # -- results ---------------------------------------------------------------

    def metrics(self) -> RunMetrics:
        """Aggregate the run into a :class:`RunMetrics` summary."""
        m = RunMetrics(n=self.config.n, k=self.config.resolved_k(),
                       duration=self._horizon)
        hold_max = 0.0
        pgb_max = 0
        delivered_waits = 0.0
        delivered_count = 0
        for host in self.owned:
            stats = host.protocol.stats
            m.messages_enqueued += stats.messages_enqueued
            m.messages_released += stats.messages_released
            m.messages_delivered += stats.deliveries - stats.replayed_deliveries
            m.mean_send_hold += stats.send_hold_time_total
            delivered_waits += stats.delivery_wait_total
            delivered_count += stats.deliveries - stats.replayed_deliveries
            m.duplicates_dropped += stats.duplicates_dropped
            m.orphans_discarded += stats.orphans_discarded
            m.outputs_discarded += stats.outputs_discarded
            m.outputs_committed += stats.outputs_committed
            m.mean_output_latency += stats.output_wait_total
            m.rollbacks += stats.rollbacks
            m.intervals_undone += stats.intervals_undone
            m.messages_requeued += stats.messages_requeued
            m.app_messages_lost += host.lost_app_messages
            m.crashes += host.crash_count
            m.retransmissions += getattr(stats, "retransmissions", 0)
            m.timer_retransmissions += getattr(stats, "timer_retransmissions", 0)
            m.acks_received += getattr(stats, "acks_received", 0)
            m.retransmit_budget_exhausted += getattr(
                stats, "retransmit_budget_exhausted", 0)
            m.outputs_pending += len(host.protocol.output_buffer)
            storage = host.protocol.storage
            m.sync_writes += storage.sync_writes
            m.async_writes += storage.async_writes
            m.gc_reclaimed += storage.gc_reclaimed
            m.final_log_records += storage.log_size
            m.final_checkpoints += len(storage.checkpoints)
            m.storage_bytes_written += storage.bytes_written
            m.storage_bytes_fsynced += storage.bytes_fsynced
            m.storage_fsyncs += storage.fsyncs
            m.storage_group_commits += storage.group_commits
            m.storage_forced_commits += storage.forced_group_commits
            m.storage_io_errors += storage.io_errors
            m.storage_io_retries += storage.io_retries
            m.storage_fsync_lies += storage.fsync_lies
            m.storage_recoveries += storage.recoveries
            m.storage_recovered_records += storage.recovered_records
            m.storage_torn_dropped += storage.torn_records_dropped
            m.storage_corrupt_dropped += storage.corrupt_records_dropped
            m.storage_recovery_wall_s += storage.recovery_wall_s
            m.storage_dead_declared += storage.dead_declared
            m.storage_deaths += host.storage_deaths
        # The accumulators above hold raw totals; without the explicit
        # zeroing a run that released/committed nothing would report the
        # total as a "mean".
        if m.messages_released:
            m.mean_send_hold /= m.messages_released
        else:
            m.mean_send_hold = 0.0
        if delivered_count:
            m.mean_delivery_wait = delivered_waits / delivered_count
        if m.outputs_committed:
            m.mean_output_latency /= m.outputs_committed
        else:
            m.mean_output_latency = 0.0
        m.processes_rolled_back = len({pid for _, pid in self.rollback_events})
        m.max_send_hold = max(
            (h.protocol.stats.send_hold_time_max for h in self.owned),
            default=0.0,
        )
        m.mean_piggyback_entries = self.network.mean_piggyback_entries()
        m.max_piggyback_entries = self.network.piggyback_entries_max
        m.control_messages = self.network.control_messages_sent
        m.storage_cost = (
            m.sync_writes * self.config.sync_write_cost
            + m.async_writes * self.config.async_write_cost
        )
        m.app_drops = self.network.app_dropped
        m.control_drops = self.network.control_dropped
        m.partition_drops = self.network.partition_drops
        m.duplicates_injected = self.network.duplicates_injected
        if self.network.faults is not None:
            m.partitions = self.network.faults.partitions_seen
            m.partition_time = self.network.faults.partition_time
        if self.network.reliable is not None:
            m.ctl_retransmits = self.network.reliable.retransmits
            m.ctl_acked = self.network.reliable.acked
            m.ctl_budget_exhausted = self.network.reliable.budget_exhausted
            m.mean_ack_rtt = self.network.reliable.mean_ack_rtt()
        m.intervals_lost = self.intervals_lost
        m.total_intervals = self.oracle.total_intervals
        m.rolled_back_intervals = self.oracle.rolled_back_intervals
        m.max_release_revokers = self.max_release_revokers
        m.violations = list(self.violations)
        # Output-commit latency SLO accounting (end-to-end samples).
        samples = self.output_latency_samples
        m.output_latency_count = len(samples)
        m.output_latency_p50 = sample_percentile(samples, 50.0)
        m.output_latency_p95 = sample_percentile(samples, 95.0)
        m.output_latency_p99 = sample_percentile(samples, 99.0)
        m.slo_target = self.config.slo_output_latency
        if m.slo_target > 0 and samples:
            within = sum(1 for s in samples if s <= m.slo_target)
            m.slo_attained = within / len(samples)
        controllers = [h.controller for h in self.owned
                       if h.controller is not None]
        if controllers:
            m.adaptive_k = True
            m.k_decisions = sum(
                len(c.decisions) - 1 for c in controllers)  # minus "init"
            history = [k for c in controllers for _, k in c.history]
            final = [float(c.k) for c in controllers]
            m.k_mean = sample_mean(history if history else final)
            m.k_final_mean = sample_mean(final)
        m.mean_recovery_span = mean_recovery_span(self.crash_events,
                                                  self.rollback_events)
        return m
