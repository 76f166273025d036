"""The Output_buffer: output commit as 0-optimistic messaging.

Section 4.2: "If a process needs to commit output to external world during
its execution, it maintains an Output_buffer like the Send_buffer.  This
buffer is also updated whenever the Send_buffer is updated.  An output is
released when all of its dependency entries become NULL" — i.e. an output
is a message with K = 0.  Both buffers therefore share one release rule,
:class:`ReleaseScan`.

Outputs sent from intervals that later turn out to be orphans must never be
committed, so the buffer is also scrubbed against the incarnation end table
whenever a failure announcement arrives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, List, Tuple

from repro.core.depvec import DependencyVector
from repro.core.tables import IncarnationEndTable, LoggingProgressTable
from repro.net.message import OutputRecord


class ReleaseScan:
    """Check_send_buffer's release rule, run incrementally over one buffer.

    Each buffered item carries a dependency vector ``tdv`` and a
    ``k_limit`` (``None`` means the system-wide K).  A pass nullifies the
    entries the log table covers and releases the items left with at most
    their K non-NULL entries.

    Buffered vectors change only through that nullification, and the log
    table only grows while a buffer lives.  So an item checked and held at
    log version v stays held until the version moves: while
    ``log.version`` equals the version of the previous pass, only the
    items appended since then (``buffer[checked:]``) are examined.  A log
    change rescans the whole buffer, and so must anything that replaces or
    clears the buffer or the table — it calls :meth:`reset`.
    """

    __slots__ = ("checked", "log_version")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Make the next pass rescan the whole buffer."""
        self.checked = 0
        self.log_version = -1

    def run(self, buffer: list, log: LoggingProgressTable, k: int) -> Tuple[list, list]:
        """One pass over ``buffer``; returns ``(released, buffer)``.

        Both keep buffer order.  The returned buffer is ``buffer`` itself
        when nothing was released, else a new list of the held items.
        ``k`` is read here, at pass time, for items with no own limit.
        """
        version = log.version
        start = self.checked if version == self.log_version else 0
        self.log_version = version
        if start >= len(buffer):
            return [], buffer
        released = []
        held = []
        for item in (buffer[start:] if start else buffer):
            tdv = item.tdv
            if isinstance(tdv, DependencyVector):
                for pid in log.covered_pids(tdv):
                    tdv.nullify(pid)
            else:
                # Multi-incarnation vectors (fully-async baseline) need the
                # per-entry form: nullify only the covered incarnation.
                for pid, entry in list(tdv.iter_items()):
                    if log.covers(pid, entry):
                        tdv.nullify_entry(pid, entry)
            limit = k if item.k_limit is None else item.k_limit
            if tdv.non_null_count() <= limit:
                released.append(item)
            else:
                held.append(item)
        if released:
            buffer = buffer[:start] + held if start else held
        self.checked = len(buffer)
        return released, buffer


@dataclass
class PendingOutput:
    """An output waiting for all of its dependencies to become stable."""

    record: OutputRecord
    tdv: DependencyVector
    enqueued_at: float = 0.0
    #: An output is a 0-optimistic message.
    k_limit: ClassVar[int] = 0


class OutputBuffer:
    """Holds outputs until every dependency entry is NULL (0-optimism).

    :meth:`update` runs after every delivery/flush/notification with the
    same incremental :class:`ReleaseScan` as the Send_buffer: while the
    log table is unchanged only outputs added since the previous call are
    examined, and a log change rescans them all.
    """

    def __init__(self):
        self._pending: List[PendingOutput] = []
        self._scan = ReleaseScan()

    def add(self, record: OutputRecord, tdv: DependencyVector, now: float = 0.0) -> None:
        self._pending.append(PendingOutput(record, tdv.copy(), now))

    def contains(self, output_id: object) -> bool:
        """True when an output with this id is already waiting.

        Rollback replay re-executes the surviving prefix of the current
        incarnation; an output enqueued there may still be sitting in this
        buffer from its original execution (rollback, unlike crash, keeps
        the volatile buffers).  Committing both copies would violate
        exactly-once output, so the enqueue path must dedup against
        pending entries, not just against already-committed ids.
        """
        return any(p.record.output_id == output_id for p in self._pending)

    def update(self, log: LoggingProgressTable) -> List[PendingOutput]:
        """Nullify entries known stable; return the outputs that became
        fully NULL and are therefore committable (removed from the buffer)."""
        ready, self._pending = self._scan.run(self._pending, log, 0)
        return ready

    def discard_orphans(self, iet: IncarnationEndTable) -> List[PendingOutput]:
        """Drop outputs that depend on rolled-back intervals; return them."""
        if iet.version == 0 or not self._pending:
            return []
        orphans = []
        kept = []
        for pending in self._pending:
            tdv = pending.tdv
            if isinstance(tdv, DependencyVector):
                orphaned = any(iet.invalidates_packed(pid, packed)
                               for pid, packed in tdv.iter_packed())
            else:
                orphaned = any(iet.invalidates(pid, e) for pid, e in tdv.items())
            if orphaned:
                orphans.append(pending)
            else:
                kept.append(pending)
        self._pending = kept
        self._scan.reset()
        return orphans

    def discard_all(self) -> None:
        """Crash: the volatile output buffer is lost (and the log table
        it was checked against is rebuilt by restart)."""
        self._pending.clear()
        self._scan.reset()

    @property
    def pending(self) -> List[PendingOutput]:
        return list(self._pending)

    def __len__(self) -> int:
        return len(self._pending)
