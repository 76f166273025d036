"""Differential property test: FileLogBackend vs ModelBackend.

The file-log backend subclasses the model, so its *logical* answers must
match the model's exactly — and, with a strict fsync policy (every record
durable before the call returns), a crash + REDO recovery must rebuild
the identical logical state.  Hypothesis drives both backends through the
same random operation sequences and compares ``state_digest()`` before
and after a crash/recover cycle.
"""

import shutil
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.depvec import DependencyVector
from repro.core.entry import Entry
from repro.net.message import AppMessage, FailureAnnouncement
from repro.storage.filelog import FileLogBackend
from repro.storage.stable import LoggedMessage, ModelBackend
from repro.types import MessageId

N = 4


def _record(position, inc, payload):
    msg = AppMessage(
        msg_id=MessageId(1, inc, position, 0),
        src=1, dst=0, payload=payload,
        tdv=DependencyVector(N, {2: Entry(0, position)}),
        send_interval=Entry(inc, position),
    )
    return LoggedMessage(position, inc, msg)


op = st.one_of(
    st.tuples(st.just("checkpoint"), st.integers(0, 50),
              st.dictionaries(st.text(max_size=3), st.integers(),
                              max_size=3)),
    st.tuples(st.just("append"), st.integers(1, 50), st.booleans()),
    st.tuples(st.just("announce"), st.integers(0, 3), st.integers(0, 50)),
    st.tuples(st.just("incmark"), st.integers(1, 5)),
    st.tuples(st.just("commit"), st.integers(0, 30)),
    st.tuples(st.just("pop"), st.integers(0, 50)),
    st.tuples(st.just("discard_ckpt"), st.integers(0, 5)),
    st.tuples(st.just("gc"), st.integers(0, 5)),
)


def _apply(backend, operation, records):
    kind = operation[0]
    if kind == "checkpoint":
        _, sii, state = operation
        backend.write_checkpoint(
            Entry(0, sii), state,
            DependencyVector(N, {1: Entry(0, sii)}),
            {MessageId(1, 0, sii, 0)},
            time_taken=0.5,
        )
    elif kind == "append":
        # Both backends log the *same* message object (records are
        # materialized once per position and shared).
        _, key, sync = operation
        backend.append_log([records[key]], sync=sync)
    elif kind == "announce":
        _, pid, sii = operation
        backend.log_announcement(FailureAnnouncement(pid, Entry(0, sii)))
    elif kind == "incmark":
        backend.log_incarnation_start(operation[1])
    elif kind == "commit":
        backend.record_committed_output(("out", operation[1]))
    elif kind == "pop":
        backend.pop_logged_after(operation[1])
    elif kind == "discard_ckpt":
        index = operation[1] % len(backend.checkpoints)
        backend.discard_checkpoints_after(index)
    elif kind == "gc":
        index = operation[1] % len(backend.checkpoints)
        backend.truncate_before(index)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(op, max_size=25), seed=st.integers(0, 1 << 16))
def test_filelog_matches_model_through_crash(ops, seed):
    directory = tempfile.mkdtemp(prefix="repro-difftest-")
    try:
        model = ModelBackend(0)
        filelog = FileLogBackend(0, directory, seed=seed,
                                 fsync_policy="strict", segment_bytes=2048)
        # Both start from the runtime's initial checkpoint.  Records are
        # materialized once per distinct position and shared.
        boot = ("checkpoint", 0, {})
        records, position = {}, 0
        for operation in ops:
            if operation[0] == "append":
                position += operation[1]
                records[operation[1]] = _record(position, 0,
                                                {"v": operation[1]})
        records["tail"] = _record(position + 1, 0, {"v": "tail"})
        for operation in [boot, *ops]:
            _apply(model, operation, records)
            _apply(filelog, operation, records)
        assert filelog.state_digest() == model.state_digest()

        # Strict policy: every record was durable, so a crash + REDO
        # recovery rebuilds the identical logical state.
        filelog.crash()
        filelog.recover()
        assert filelog.state_digest() == model.state_digest()

        # And the recovered backend is still live and consistent.
        tail = ("append", "tail", True)
        _apply(model, tail, records)
        _apply(filelog, tail, records)
        assert filelog.state_digest() == model.state_digest()
        filelog.close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
