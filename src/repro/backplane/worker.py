"""One recovery unit as a real OS process (``repro serve-worker``).

Spawned by the coordinator, a worker runs the same
:class:`~repro.runtime.harness.ProcessHost` as the simulation — incoming
dispatch, notification batching, notification fanout, the adaptive-K
controller, fail-stop on storage death and the periodic flush /
checkpoint / notify / control activities all live there — over two serve
seams:

- a :class:`~repro.backplane.clock.WallClock` (asyncio timers scaled by
  the run's ``timescale``);
- a :class:`CoordinatorTransport` that turns every send into a
  length-prefixed JSON frame to the coordinator (the star topology routes
  every message through it).

This module adds only framing, decoding and the ``status``/``shutdown``
commands.  The protocol is a
:class:`~repro.core.protocol.KOptimisticProcess` over a durable file-log
journal under the run directory (so a SIGKILL loses exactly what the
paper's fail-stop model says it loses), with ``dep.*`` tracing on.  On
respawn after a crash the journal directory is non-empty; the worker then
boots via :meth:`KOptimisticProcess.boot_after_crash` (REDO-only recovery
plus the Restart broadcast) instead of :meth:`initialize`.
"""

from __future__ import annotations

import asyncio
import json
import os
from typing import Any, Dict, Optional

from repro.app.behavior import EchoBehavior
from repro.app.hopchain import HopChainBehavior
from repro.backplane.clock import JsonlTracer, WallClock
from repro.backplane.codec import decode_app, decode_control, encode_app, encode_control
from repro.backplane.framing import FramingError, read_frame, write_frame
from repro.core.protocol import KOptimisticProcess
from repro.net.message import AppMessage
from repro.runtime.config import SimConfig
from repro.runtime.harness import ProcessHost, protocol_factory_for
from repro.sim.rng import RngRegistry

#: Behaviours a serve run can name in its manifest.
BEHAVIORS = {
    "echo": EchoBehavior,
    "hopchain": HopChainBehavior,
}

#: Serve's defaults under the manifest's ``config``: at-least-once
#: delivery across worker crashes — app-level acks with timer
#: retransmission, plus the footnote-3 sent-log replayed to a restarted
#: destination.
SERVE_DEFAULTS: Dict[str, Any] = {
    "retransmit_timeout": 8.0,
    "retransmit_budget": 12,
    "retransmit_window": 64,
}


def load_manifest(run_dir: str) -> Dict[str, Any]:
    with open(os.path.join(run_dir, "run.json"), encoding="utf-8") as fh:
        return json.load(fh)


def config_from_manifest(manifest: Dict[str, Any], run_dir: str) -> SimConfig:
    """The worker-side protocol configuration for a serve run.

    The manifest's ``config`` dict holds plain :class:`SimConfig` fields
    (over :data:`SERVE_DEFAULTS`); serve's own fields are forced on top:
    the file-log journal under the run directory, streamed ``dep.*``
    traces, acks on, and no inline checks (certification is post-hoc).
    An unknown field raises instead of being dropped.
    """
    config = SimConfig(**{
        **SERVE_DEFAULTS,
        **manifest.get("config", {}),
        "n": manifest["n"],
        "k": manifest.get("k"),
        "seed": manifest.get("seed", 0),
        "storage_backend": "filelog",
        "storage_dir": os.path.join(run_dir, "storage"),
        "trace_enabled": True,
        "dep_trace": True,
        "ack_layer": True,
        "check_invariants": False,
    })
    config.validate()
    return config


class CoordinatorTransport:
    """The host's transport: every send becomes a routed frame."""

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer

    def send_app(self, msg: AppMessage) -> None:
        write_frame(self.writer, {"t": "app", "dst": msg.dst,
                                  "msg": encode_app(msg)})

    def send_control(self, src: int, dst: int, payload: Any,
                     reliable: bool = False) -> None:
        write_frame(self.writer, {"t": "ctl", "src": src, "dst": dst,
                                  "body": encode_control(payload)})

    def broadcast_control(self, src: int, payload: Any,
                          include_self: bool = False,
                          reliable: bool = False) -> None:
        # dst -1 = coordinator-side fan-out; TCP plus coordinator-side
        # parking for down workers makes control delivery reliable, so the
        # flag needs no extra machinery here.
        write_frame(self.writer, {"t": "ctl", "src": src, "dst": -1,
                                  "body": encode_control(payload)})

    def on_process_crash(self, pid: int) -> None:
        """An in-process fail-stop (storage death) queues nothing here."""

    def on_process_restart(self, pid: int) -> None:
        """Nothing was held back at the crash, so nothing resumes."""


class Worker:
    """A :class:`ProcessHost` plus framing for one OS process."""

    def __init__(self, pid: int, run_dir: str):
        self.pid = pid
        self.run_dir = run_dir
        self.manifest = load_manifest(run_dir)
        self.n = int(self.manifest["n"])
        self.config = config_from_manifest(self.manifest, run_dir)
        self.tracer = JsonlTracer(
            os.path.join(run_dir, "trace", f"p{pid:03d}.jsonl"))
        self.host: Optional[ProcessHost] = None
        self._shutdown = asyncio.Event()

    # -- lifecycle -----------------------------------------------------------

    async def run(self) -> int:
        loop = asyncio.get_running_loop()
        clock = WallClock(loop, float(self.manifest["timescale"]))
        # Respawn detection must precede backend construction (building the
        # file-log backend creates the directory).
        journal = os.path.join(self.run_dir, "storage", f"p{self.pid:03d}")
        recovering = os.path.isdir(journal) and any(os.scandir(journal))

        behavior = BEHAVIORS[self.manifest.get("behavior", "hopchain")]()
        factory = protocol_factory_for(KOptimisticProcess)
        protocol = factory(self.pid, self.config, behavior, lambda: clock.now)

        reader, writer = await asyncio.open_connection(
            "127.0.0.1", int(self.manifest["port"]))
        host = self.host = ProcessHost(
            self.pid, protocol, self.config,
            clock=clock, transport=CoordinatorTransport(writer),
            tracer=self.tracer, rngs=RngRegistry(self.config.seed),
        )
        write_frame(writer, {"t": "hello", "pid": self.pid,
                             "recovered": recovering})
        await writer.drain()

        if recovering:
            effects = protocol.boot_after_crash()
            self.tracer.record(clock.now, "worker.respawn", self.pid)
        else:
            effects = protocol.initialize()
            self.tracer.record(clock.now, "worker.start", self.pid)
        host.execute(effects)
        host.start_timers()

        try:
            while not self._shutdown.is_set():
                frame = await read_frame(reader)
                if frame is None:
                    break  # coordinator went away: exit quietly
                self._dispatch(frame, writer)
                await writer.drain()
        except (FramingError, ConnectionError):
            return 1
        finally:
            clock.stop()
            protocol.storage.close()
            self.tracer.close()
            writer.close()
        return 0

    # -- frame dispatch --------------------------------------------------------

    def _dispatch(self, frame: Dict[str, Any], writer) -> None:
        t = frame.get("t")
        if t == "app":
            self.host.incoming(decode_app(self.n, frame["msg"]))
        elif t == "ctl":
            self.host.incoming(decode_control(frame["body"]))
        elif t == "cmd":
            self._command(frame, writer)
        else:
            raise FramingError(f"unknown frame type {t!r}")

    def _command(self, frame: Dict[str, Any], writer) -> None:
        op = frame.get("op")
        host = self.host
        if op == "inject":
            # Coordinator-assigned unique sequence number.
            host.inject(frame["payload"], int(frame["seq"]))
        elif op in ("flush", "notify", "checkpoint"):
            getattr(host, op)()
        elif op == "status":
            p = host.protocol
            write_frame(writer, {
                "t": "status",
                "rid": frame.get("rid"),
                "pid": self.pid,
                # Unacked releases count: a message bound for a crashed
                # destination is still in flight until the restarted
                # worker acks the timer-driven re-send.
                "quiescent": host.idle() and not p.unacked_count,
                "outputs_committed": p.stats.outputs_committed,
                "deliveries": p.stats.deliveries,
                "restarts": p.stats.restarts,
            })
        elif op == "shutdown":
            self._shutdown.set()
        else:
            raise FramingError(f"unknown command {op!r}")


def main(pid: int, run_dir: str) -> int:
    return asyncio.run(Worker(pid, run_dir).run())
