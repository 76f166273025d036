"""Transport-agnostic interpretation of protocol effects.

The sans-IO core returns effects; *something* must turn them into sends,
timers, commits, and trace records.  :class:`EffectExecutor` is that
interpreter.  Each :class:`~repro.runtime.harness.ProcessHost` — the one
per-process host every driver (serial simulation, parallel workers,
``repro serve`` workers) runs — owns one, and hands it the host's two
environment seams:

- ``transport`` with the :class:`~repro.net.network.Network` signatures —
  ``send_app(msg)``, ``send_control(src, dst, payload)``,
  ``broadcast_control(src, payload, reliable=...)``;
- ``clock`` with ``now`` (virtual time in simulation, wall-clock in serve)
  and ``schedule(delay, callback)`` returning a cancellable handle.

:class:`ExecutionHooks` are the driver's observer slots: the simulation
plugs in hooks that feed the ground-truth oracle and run the Theorem-4 /
output-commit invariant checks inline; serve plugs in none, and is
certified post-hoc by replaying its traces through the same oracle
(:mod:`repro.oracle.ingest`).

With ``dep_trace`` enabled the executor additionally records the
``dep.*`` event family: a numeric, parser-free encoding of exactly the
facts the dependency oracle consumes (interval creations, stability,
recoveries, release/commit claims).  Post-hoc certification of a real
multi-process run rests on these events alone.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.core.effects import (
    BroadcastAnnouncement,
    CommitOutput,
    DuplicateDropped,
    Effect,
    MessageDelivered,
    MessageDiscarded,
    OutputDiscarded,
    ReleaseMessage,
    RequestLogging,
    RestartPerformed,
    RollbackPerformed,
    ScheduleRetransmit,
    SendNotification,
    StableProgress,
)
from repro.net.message import LoggingRequest
from repro.runtime.metrics import output_latency
from repro.sim.trace import Tracer


class ExecutionHooks:
    """Observer slots the executor calls around actionable effects.

    The base class is a no-op (the runtime backplane's configuration);
    the simulation harness subclasses it to maintain the ground-truth
    oracle and evaluate invariants inline.
    """

    def pre_release(self, msg: Any) -> None:
        """Called before an app message is handed to the transport."""

    def pre_commit(self, record: Any) -> None:
        """Called before an output commit is recorded."""

    def post_commit(self, now: float, record: Any, latency: float) -> None:
        """Called after the commit checks, before the trace record, with
        the output's latency sample (:func:`~repro.runtime.metrics.output_latency`)."""

    def on_delivery(self, effect: MessageDelivered) -> None:
        """Called for every *non-replay* delivery (a new state interval)."""

    def on_stable(self, effect: StableProgress) -> None:
        """Called when a stability frontier advances."""

    def on_rollback(self, now: float, effect: RollbackPerformed) -> None:
        """Called when a non-failed process rolled back orphans."""

    def on_restart(self, now: float, effect: RestartPerformed) -> None:
        """Called when a failed process completed Restart."""


class EffectExecutor:
    """Interprets one process's protocol effects against an environment."""

    def __init__(
        self,
        pid: int,
        *,
        transport: Any,
        clock: Any,
        tracer: Tracer,
        on_retransmit: Callable[[Any], None],
        hooks: Optional[ExecutionHooks] = None,
        dep_trace: bool = False,
    ):
        self.pid = pid
        self.transport = transport
        self.clock = clock
        self.tracer = tracer
        self.on_retransmit = on_retransmit
        self.hooks = hooks if hooks is not None else ExecutionHooks()
        self.dep_trace = dep_trace
        #: The host's adaptive-K sample window (None without a
        #: controller): every committed output's latency is appended.
        self.latency_sink: Optional[List[float]] = None

    def execute(
        self,
        effects: List[Effect],
        probe: Optional[Callable[[Effect], None]] = None,
    ) -> None:
        """Interpret ``effects`` in stream order.

        ``probe`` (when given) runs for each effect *before* it is
        interpreted — the checker's effect-level invariant layer relies on
        seeing every effect against the state its predecessors produced.
        """
        pid = self.pid
        now = self.clock.now
        tracer = self.tracer
        hooks = self.hooks
        dep = self.dep_trace
        for effect in effects:
            if probe is not None:
                probe(effect)
            if isinstance(effect, ReleaseMessage):
                msg = effect.message
                hooks.pre_release(msg)
                tracer.record(now, "msg.release", pid,
                              msg=str(msg.msg_id), dst=msg.dst,
                              entries=msg.piggyback_size())
                if dep:
                    si = msg.send_interval
                    data = {"inc": si.inc, "sii": si.sii,
                            "msg": str(msg.msg_id),
                            "replayed": msg.replayed}
                    # A per-message bound (Section 4.2) must travel with
                    # the release claim, or the post-hoc certifier would
                    # judge it against the global K.
                    if msg.k_limit is not None:
                        data["k"] = msg.k_limit
                    tracer.record(now, "dep.release", pid, **data)
                self.transport.send_app(msg)
            elif isinstance(effect, BroadcastAnnouncement):
                tracer.record(now, "ann.broadcast", pid,
                              ann=str(effect.announcement))
                # Announcements MUST eventually reach everyone (Theorem 1);
                # reliable=True engages the ack/retransmit layer when one is
                # configured and degrades to the plain path otherwise.
                self.transport.broadcast_control(
                    pid, effect.announcement, reliable=True
                )
            elif isinstance(effect, CommitOutput):
                record = effect.record
                hooks.pre_commit(record)
                latency = output_latency(now, record, effect.wait)
                hooks.post_commit(now, record, latency)
                if self.latency_sink is not None:
                    self.latency_sink.append(latency)
                tracer.record(now, "output.commit", pid,
                              output=str(record.output_id))
                if dep:
                    si = record.send_interval
                    tracer.record(now, "dep.commit", pid,
                                  inc=si.inc, sii=si.sii,
                                  output=str(record.output_id),
                                  payload=record.payload,
                                  wait=round(effect.wait, 6))
            elif isinstance(effect, MessageDelivered):
                if not effect.replay:
                    hooks.on_delivery(effect)
                    if dep:
                        msg = effect.message
                        data = {"inc": effect.interval.inc,
                                "sii": effect.interval.sii,
                                "src": msg.src}
                        if msg.src >= 0 and msg.send_interval is not None:
                            data["src_inc"] = msg.send_interval.inc
                            data["src_sii"] = msg.send_interval.sii
                        tracer.record(now, "dep.deliver", pid, **data)
                tracer.record(now, "msg.deliver", pid,
                              msg=str(effect.message.msg_id),
                              interval=str(effect.interval),
                              replay=effect.replay)
            elif isinstance(effect, MessageDiscarded):
                tracer.record(now, "msg.discard", pid,
                              msg=str(effect.message.msg_id),
                              reason=effect.reason)
            elif isinstance(effect, DuplicateDropped):
                tracer.record(now, "msg.duplicate", pid,
                              msg=str(effect.message.msg_id))
            elif isinstance(effect, OutputDiscarded):
                tracer.record(now, "output.discard", pid,
                              output=str(effect.record.output_id))
            elif isinstance(effect, RequestLogging):
                for target in effect.targets:
                    self.transport.send_control(
                        pid, target, LoggingRequest(pid))
            elif isinstance(effect, SendNotification):
                self.transport.send_control(
                    pid, effect.dst, effect.notification)
            elif isinstance(effect, ScheduleRetransmit):
                self.clock.schedule(
                    effect.delay,
                    lambda mid=effect.msg_id: self.on_retransmit(mid),
                )
            elif isinstance(effect, StableProgress):
                hooks.on_stable(effect)
                if dep:
                    tracer.record(now, "dep.stable", pid,
                                  inc=effect.through.inc,
                                  sii=effect.through.sii)
            elif isinstance(effect, RollbackPerformed):
                hooks.on_rollback(now, effect)
                tracer.record(now, "recovery.rollback", pid,
                              to=str(effect.restored_to),
                              new=str(effect.new_current),
                              undone=effect.intervals_undone)
                if dep:
                    tracer.record(now, "dep.recover", pid,
                                  s_inc=effect.restored_to.inc,
                                  s_sii=effect.restored_to.sii,
                                  n_inc=effect.new_current.inc,
                                  n_sii=effect.new_current.sii)
            elif isinstance(effect, RestartPerformed):
                hooks.on_restart(now, effect)
                tracer.record(now, "recovery.restart", pid,
                              ann=str(effect.announcement),
                              replayed=effect.replayed)
                if dep:
                    survivor = effect.announcement.end
                    tracer.record(now, "dep.recover", pid,
                                  s_inc=survivor.inc,
                                  s_sii=survivor.sii,
                                  n_inc=effect.new_current.inc,
                                  n_sii=effect.new_current.sii)
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown effect {effect!r}")
