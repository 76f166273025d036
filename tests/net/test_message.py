"""Unit tests for wire message types and identities."""

from repro.core.depvec import DependencyVector
from repro.core.entry import Entry
from repro.net.message import (
    AppMessage,
    FailureAnnouncement,
    LoggingRequest,
    LogProgressNotification,
    OutputRecord,
)
from repro.types import MessageId, OutputId


def msg(entries=None, n=4):
    return AppMessage(
        msg_id=MessageId(0, 0, 1, 0),
        src=0, dst=1, payload={},
        tdv=DependencyVector(n, entries or {}),
        send_interval=Entry(0, 1),
    )


class TestMessageId:
    def test_identity_includes_incarnation(self):
        # Replay of a stable interval regenerates the same id; re-execution
        # in a new incarnation produces a different one.
        a = MessageId(0, 0, 5, 0)
        b = MessageId(0, 0, 5, 0)
        c = MessageId(0, 1, 5, 0)
        assert a == b
        assert a != c

    def test_ordering_and_hashing(self):
        ids = {MessageId(0, 0, 1, 0), MessageId(0, 0, 1, 1)}
        assert len(ids) == 2
        assert MessageId(0, 0, 1, 0) < MessageId(0, 0, 1, 1)

    def test_str(self):
        assert str(MessageId(3, 1, 5, 2)) == "m(3:1.5.2)"

    def test_output_id_str(self):
        assert str(OutputId(3, 1, 5, 2)) == "o(3:1.5.2)"


class TestAppMessage:
    def test_piggyback_size(self):
        assert msg().piggyback_size() == 0
        assert msg({0: Entry(0, 1), 2: Entry(1, 3)}).piggyback_size() == 2

    def test_wire_ids_unique(self):
        assert msg().wire_id != msg().wire_id

    def test_default_flags(self):
        m = msg()
        assert m.replayed is False
        assert m.deliver is False
        assert m.k_limit is None

    def test_str_mentions_route(self):
        text = str(msg({0: Entry(0, 1)}))
        assert "0->1" in text


class TestControlMessages:
    def test_failure_announcement_is_frozen_and_hashable(self):
        ann = FailureAnnouncement(1, Entry(0, 4))
        assert ann == FailureAnnouncement(1, Entry(0, 4))
        assert {ann: 1}[ann] == 1
        assert "inc 0 ended at 4" in str(ann)

    def test_log_progress_notification_str(self):
        notif = LogProgressNotification(2, [{}, {}, {0: 5}])
        assert "P2" in str(notif)

    def test_logging_request_str(self):
        assert "P3" in str(LoggingRequest(3))

    def test_output_record_str(self):
        record = OutputRecord(OutputId(1, 0, 2, 0), 1, "x", Entry(0, 2))
        assert "(0,2)_1" in str(record)


class TestWireIdStaysInMemory:
    """``wire_id`` numbers in-memory transmissions from a process-global
    counter; it must not leak into journal bytes, or a later run of the
    same schedule in the same interpreter journals different bytes."""

    def test_pickle_omits_wire_id_and_load_draws_a_fresh_one(self):
        import pickle

        a, b = msg(), msg()
        assert a.wire_id != b.wire_id
        assert pickle.dumps(a) == pickle.dumps(b)
        loaded = pickle.loads(pickle.dumps(a))
        assert loaded.msg_id == a.msg_id and loaded.tdv == a.tdv
        assert loaded.wire_id not in (a.wire_id, b.wire_id)

    def test_file_log_run_is_independent_of_earlier_runs(self, monkeypatch):
        import dataclasses
        import itertools

        from repro.failures.injector import CrashEvent, FailureSchedule
        from repro.net import message
        from repro.runtime.config import SimConfig
        from repro.runtime.harness import SimulationHarness
        from repro.workloads.openloop import OpenLoopWorkload

        def run(first_wire_id):
            # A long-lived interpreter has numbered many messages before.
            monkeypatch.setattr(message, "_wire_counter",
                                itertools.count(first_wire_id))
            workload = OpenLoopWorkload(rate=2.0, output_fraction=0.5)
            harness = SimulationHarness(
                SimConfig(n=4, k=2, seed=3, storage_backend="filelog"),
                workload.behavior(),
                failures=FailureSchedule([CrashEvent(15.0, 1)]))
            try:
                workload.install(harness, until=30.0)
                harness.run(40.0)
                metrics = dataclasses.asdict(harness.metrics())
            finally:
                harness.close()
            del metrics["storage_recovery_wall_s"]  # host time
            return metrics

        fresh, later = run(0), run(1 << 40)
        assert fresh["storage_bytes_fsynced"] > 0
        assert fresh["storage_recoveries"] >= 1
        assert later == fresh
