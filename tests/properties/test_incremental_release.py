"""Incremental release scans against the full-rescan reference.

:class:`~repro.core.output.ReleaseScan` lets Check_send_buffer and the
output buffer re-examine only the items appended since their last pass
while the log table is unchanged.  The property drives one
:class:`KOptimisticProcess` and one
:class:`~reference_model.ReferenceKOptimisticProcess` (every pass rescans
everything) through the same random sequences of deliveries with
per-message K, batched logging-progress notifications, flushes,
checkpoints, failure announcements and crash/restart, and asserts that
both emit the same effects and hold the same buffers and vectors after
every step.

The targeted regressions below pin each path that replaces or clears a
scanned buffer, or the log table it was checked against: each must make
the next pass a full one, and each test fails if that path skips its
reset.
"""

import re

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.app.behavior import AppBehavior
from repro.core.depvec import DependencyVector
from repro.core.effects import ReleaseMessage
from repro.core.entry import Entry
from repro.core.output import OutputBuffer
from repro.core.protocol import KOptimisticProcess
from repro.core.tables import IncarnationEndTable, LoggingProgressTable
from repro.net.message import LogProgressNotification, OutputRecord
from repro.types import OutputId
from helpers import deliver_env, effects_of, make_announcement, make_msg
from reference_model import ReferenceKOptimisticProcess

N = 5


class FanoutBehavior(AppBehavior):
    """Sends one message per ``(dst, k)`` pair in the payload (``k`` is
    the per-message K, ``None`` for the system-wide one) and emits an
    output when asked."""

    def on_message(self, state, payload, ctx):
        for dst, k in payload.get("sends", ()):
            ctx.send(dst, {}, k=k)
        if payload.get("output"):
            ctx.output(payload["output"])
        return state


entry_st = st.builds(Entry, inc=st.integers(0, 2), sii=st.integers(1, 12))
sends_st = st.lists(
    st.tuples(st.integers(1, N - 1), st.one_of(st.none(), st.integers(0, N))),
    max_size=3)

receive_op = st.tuples(
    st.just("receive"),
    st.integers(1, N - 1),
    st.dictionaries(st.integers(1, N - 1), entry_st, max_size=N - 1),
    sends_st,
    st.booleans(),
)
notify_op = st.tuples(
    st.just("notify"),
    st.lists(st.tuples(st.integers(0, N - 1), st.integers(0, 2),
                       st.integers(1, 12)), min_size=1, max_size=4),
)
announce_op = st.tuples(
    st.just("announce"), st.integers(1, N - 1), st.integers(0, 2),
    st.integers(1, 12))
simple_op = st.sampled_from([("flush",), ("checkpoint",), ("crash",)])
ops_st = st.lists(
    st.one_of(receive_op, receive_op, notify_op, announce_op, simple_op),
    max_size=40)


def apply(proc, op, step):
    kind = op[0]
    if kind == "receive":
        _, sender, entries, sends, output = op
        payload = {"sends": sends, "output": f"out-{step}" if output else None}
        return proc.on_receive(
            make_msg(sender, proc.pid, n=N, entries=entries, payload=payload,
                     seq=step))
    if kind == "notify":
        notifs = []
        for origin, inc, sii in op[1]:
            table = [{} for _ in range(N)]
            table[origin] = {inc: sii}
            notifs.append(LogProgressNotification(origin, table))
        return proc.on_log_notifications(notifs)
    if kind == "announce":
        _, origin, inc, sii = op
        return proc.on_failure_announcement(make_announcement(origin, inc, sii))
    if kind == "flush":
        return proc.flush()
    if kind == "checkpoint":
        return proc.checkpoint()
    proc.crash()
    return proc.restart()


def effect_stream(effects):
    """Effects as text, without the per-object transport ids
    (``wire_id``) that differ between the two processes' copies."""
    return re.sub(r"wire_id=\d+", "", repr(effects))


def observable(proc):
    return (
        [(m.msg_id, m.tdv.as_dict(), m.k_limit) for m in proc.send_buffer],
        [(p.record.output_id, p.tdv.as_dict())
         for p in proc.output_buffer.pending],
        [m.msg_id for m in proc.receive_buffer],
        proc.tdv.as_dict(),
        proc.current,
        vars(proc.stats),
    )


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(k=st.integers(0, 3), ops=ops_st)
def test_incremental_scans_match_full_rescan(k, ops):
    clock = [0.0]
    procs = []
    for cls in (KOptimisticProcess, ReferenceKOptimisticProcess):
        proc = cls(0, N, k, FanoutBehavior(), now_fn=lambda: clock[0])
        proc.initialize()
        procs.append(proc)
    fast, ref = procs
    for step, op in enumerate(ops):
        clock[0] = float(step)
        # Each process gets its own copy of every message: delivery and
        # the scans mutate buffered vectors in place.
        got = apply(fast, op, step)
        want = apply(ref, op, step)
        assert effect_stream(got) == effect_stream(want), (step, op)
        assert observable(fast) == observable(ref), (step, op)


# ----------------------------------------------------------------------
# Targeted regressions: every path that replaces a scanned buffer (or the
# table it was checked against) must make the next pass a full one.
# ----------------------------------------------------------------------


class ForwardBehavior(AppBehavior):
    """Forwards to ``payload["to"]`` with per-message K ``payload["k"]``."""

    def on_message(self, state, payload, ctx):
        if "to" in payload:
            ctx.send(payload["to"], {}, k=payload.get("k"))
        return state


def _released(effects):
    return effects_of(effects, ReleaseMessage)


def test_scrub_orphans_rescans_the_replaced_send_buffer():
    proc = KOptimisticProcess(0, 4, 1, ForwardBehavior())
    proc.initialize()
    # Two held messages, each depending on P1's (0, 5).
    for dst in (2, 3):
        proc.send_buffer.append(
            make_msg(0, dst, n=4, entries={1: Entry(0, 5), dst: Entry(0, 5)}))
    assert proc._check_send_buffer() == []
    # P1's incarnation 0 ended at 4: both are orphans.  The log table does
    # not change, so only the scrub's reset can force a full pass.
    version = proc.log.version
    proc.iet.insert(1, Entry(0, 4))
    assert len(proc._scrub_orphans()) == 2
    assert proc.send_buffer == []
    # A new message with one entry is releasable at K = 1.
    proc._enqueue_send(2, {}, seq=0)
    assert proc.log.version == version
    assert len(_released(proc._check_send_buffer())) == 1
    assert proc.send_buffer == []


def test_restart_rescans_the_rebuilt_send_buffer():
    # Restart replaces the log table, whose version count starts over, so
    # for some number of updates before the crash the rebuilt table reaches
    # the version of the last pre-crash pass.  The first message after the
    # restart must be examined whatever that number is.
    for bumps in range(12):
        proc = KOptimisticProcess(0, 4, 1, ForwardBehavior())
        proc.initialize()
        for sii in range(1, bumps + 1):
            proc.log.insert(1, Entry(0, sii))
        # Held (own entry non-NULL, per-message K = 0) and never logged.
        effects = deliver_env(proc, {"to": 2, "k": 0})
        assert _released(effects) == [] and len(proc.send_buffer) == 1
        proc.crash()
        proc.restart()
        assert proc.send_buffer == []
        effects = deliver_env(proc, {"to": 3})
        assert len(_released(effects)) == 1, bumps
        assert proc.send_buffer == []


def _record(seq):
    return OutputRecord(OutputId(0, 0, 2, seq), 0, f"out-{seq}", Entry(0, 2))


def test_discard_orphans_rescans_the_replaced_output_buffer():
    buf = OutputBuffer()
    log = LoggingProgressTable(4)
    buf.add(_record(0), DependencyVector(4, {1: Entry(0, 5)}))
    buf.add(_record(1), DependencyVector(4, {1: Entry(0, 6)}))
    assert buf.update(log) == []
    iet = IncarnationEndTable(4)
    iet.insert(1, Entry(0, 5))
    assert [p.record.payload for p in buf.discard_orphans(iet)] == ["out-1"]
    buf.add(_record(2), DependencyVector(4))
    assert [p.record.payload for p in buf.update(log)] == ["out-2"]
    assert [p.record.payload for p in buf.pending] == ["out-0"]


def test_discard_all_rescans_the_cleared_output_buffer():
    buf = OutputBuffer()
    log = LoggingProgressTable(4)
    buf.add(_record(0), DependencyVector(4, {1: Entry(0, 5)}))
    assert buf.update(log) == []
    buf.discard_all()
    buf.add(_record(1), DependencyVector(4))
    assert [p.record.payload for p in buf.update(log)] == ["out-1"]


def test_unchanged_log_examines_only_new_messages():
    """The saving itself: with the log unchanged, held messages are not
    re-examined (their vectors are not even read)."""
    proc = KOptimisticProcess(0, 4, 0, ForwardBehavior())
    proc.initialize()
    deliver_env(proc, {"to": 2})
    held = proc.send_buffer[0]

    class Untouchable(DependencyVector):
        def iter_packed(self):
            raise AssertionError("held vector re-scanned")

    held.tdv = Untouchable(4, held.tdv.as_dict())
    deliver_env(proc, {"to": 3})
    assert len(proc.send_buffer) == 2
    # A log change, in contrast, rescans (and here releases) everything.
    held.tdv = DependencyVector(4, held.tdv.as_dict())
    proc.flush()
    assert proc.send_buffer == []
