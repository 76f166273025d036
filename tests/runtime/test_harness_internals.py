"""Harness internals: effect dispatch, invariant-check plumbing,
injection semantics."""

import pytest

from repro.core.effects import Effect
from repro.core.entry import Entry
from repro.net.message import LoggingRequest, LogProgressNotification
from repro.runtime.config import SimConfig
from repro.runtime.harness import (
    ProcessHost,
    SimulationHarness,
    protocol_factory_for,
)
from repro.workloads.random_peers import RandomPeersWorkload

from helpers import build_sim


def build(n=3, **kwargs):
    return build_sim(n=n, seed=1, rate=0.2, until=None,
                     trace_enabled=True, **kwargs)


class TestEffectDispatch:
    def test_unknown_effect_raises(self):
        harness = build()

        class Mystery(Effect):
            pass

        with pytest.raises(TypeError):
            harness.hosts[0].execute([Mystery()])

    def test_unknown_payload_raises(self):
        harness = build()
        with pytest.raises(TypeError):
            harness.hosts[0].incoming(object())

    def test_logging_request_dispatch(self):
        harness = build(output_driven_logging=True)
        harness.hosts[0].incoming(LoggingRequest(origin=1))
        harness.engine.run()
        # The flush reply reached P1 as a control message.
        assert harness.network.control_messages_sent >= 1


class TestInjection:
    def test_injections_have_unique_ids(self):
        harness = build()
        harness.inject_now(0, {"a": 1})
        harness.inject_now(0, {"a": 2})
        harness.engine.run()
        assert harness.hosts[0].protocol.stats.deliveries == 2
        assert harness.hosts[0].protocol.stats.duplicates_dropped == 0

    def test_injection_to_down_process_is_lost(self):
        harness = build(restart_delay=50.0)
        harness.hosts[1].crash()
        harness.inject_now(1, {"a": 1})
        assert harness.hosts[1].lost_app_messages == 1

    def test_control_to_down_process_is_queued(self):
        from repro.net.message import FailureAnnouncement

        harness = build(restart_delay=50.0)
        harness.hosts[1].crash()
        ann = FailureAnnouncement(0, Entry(0, 1))
        harness.hosts[1].incoming(ann)
        assert harness.hosts[1].pending_control == [ann]
        harness.hosts[1].restart()
        assert harness.hosts[1].pending_control == []
        assert harness.hosts[1].protocol.iet.lookup(0, 0) == 1

    def test_logging_request_dropped_while_down(self):
        harness = build(restart_delay=50.0)
        harness.hosts[1].crash()
        harness.hosts[1].incoming(LoggingRequest(origin=0))
        # Best-effort hint: neither queued nor counted as an app loss.
        assert harness.hosts[1].pending_control == []
        assert harness.hosts[1].lost_app_messages == 0


class TestInvariantPlumbing:
    def test_violations_propagate_to_metrics(self):
        harness = build()
        harness.violations.append("synthetic violation")
        assert "synthetic violation" in harness.metrics().violations

    def test_check_invariants_off_skips_oracle_checks(self):
        config = SimConfig(n=3, seed=1, check_invariants=False,
                           trace_enabled=False)
        workload = RandomPeersWorkload(rate=0.4)
        harness = SimulationHarness(config, workload.behavior())
        workload.install(harness, until=60.0)
        harness.run(100.0)
        # No consistency pass ran, so violations stay empty by construction.
        assert harness.metrics().violations == []

    def test_restart_of_up_process_is_noop(self):
        harness = build()
        before = harness.hosts[0].protocol.current
        harness.hosts[0].restart()
        assert harness.hosts[0].protocol.current == before


class _RecordingTransport:
    def __init__(self):
        self.sent = []

    def send_app(self, msg):
        self.sent.append(("app", msg.dst))

    def send_control(self, src, dst, payload, reliable=False):
        self.sent.append(("ctl", dst, type(payload).__name__))

    def broadcast_control(self, src, payload, include_self=False,
                          reliable=False):
        self.sent.append(("bcast", type(payload).__name__))

    def on_process_crash(self, pid):
        self.sent.append(("crash", pid))

    def on_process_restart(self, pid):
        self.sent.append(("restart", pid))


class TestHostSeam:
    """A host needs only a Clock and a Transport — no harness."""

    def build(self, **overrides):
        from repro.app.behavior import EchoBehavior
        from repro.core.protocol import KOptimisticProcess
        from repro.sim.engine import Engine
        from repro.sim.rng import RngRegistry
        from repro.sim.trace import Tracer

        engine = Engine()
        config = SimConfig(n=3, seed=1, **overrides)
        protocol = protocol_factory_for(KOptimisticProcess)(
            1, config, EchoBehavior(), lambda: engine.now)
        transport = _RecordingTransport()
        host = ProcessHost(1, protocol, config, clock=engine,
                           transport=transport, tracer=Tracer(enabled=True),
                           rngs=RngRegistry(config.seed))
        host.execute(protocol.initialize())
        return engine, host, transport

    def test_timers_and_controller_run_on_the_clock(self):
        engine, host, transport = self.build(adaptive_k=True, k=2)
        host.start_timers(horizon=100.0)
        host.inject({"output": "o1"}, seq=0)
        engine.run()
        assert ("bcast", "LogProgressNotification") in transport.sent
        ticks = [e for e in host.tracer.events if e.category == "control.k"]
        assert len(ticks) == int(100.0 // host.config.control_interval)
        assert engine.now <= 100.0
        assert host.protocol.stats.outputs_committed == 1
        assert host.idle()

    def test_same_tick_notifications_drain_once(self):
        from repro.core.tables import LoggingProgressTable

        engine, host, _ = self.build()
        calls = []
        original = host.protocol.on_log_notifications
        host.protocol.on_log_notifications = (
            lambda batch: calls.append(len(batch)) or original(batch))
        for origin in (0, 2):
            table = LoggingProgressTable(3)
            table.insert(origin, Entry(0, 1))
            host.incoming(LogProgressNotification(origin, table.snapshot()))
        assert calls == []  # deferred behind same-tick deliveries
        engine.run()
        assert calls == [2]

    def test_storage_death_is_a_fail_stop_crash(self):
        from repro.storage.faults import StorageDeadError

        engine, host, transport = self.build(restart_delay=5.0)

        def dead():
            raise StorageDeadError("disk gone")

        host.protocol.flush = dead
        host.flush()
        assert host.down and host.storage_deaths == 1
        assert ("crash", 1) in transport.sent
        engine.run()
        assert not host.down
        assert ("restart", 1) in transport.sent
