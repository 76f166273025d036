"""Test-only ground truth: the pre-columnar and full-rescan implementations.

:class:`ReferenceDependencyVector` is the dict-of-Entry dependency vector
and the ``Reference*Table`` classes are the dict-of-dicts bookkeeping
tables that :mod:`repro.core.depvec` and :mod:`repro.core.tables` replaced
with flat integer columns.  The protocol never uses them; the differential
property suite (``tests/properties/test_columnar_equivalence.py``) drives
both implementations through the same random operation sequences and
compares their observable state through ``as_dict()``/``snapshot()``.

:class:`ReferenceKOptimisticProcess` is the protocol with its stability
scans written the obvious way: every Check_send_buffer, output-buffer
update and Theorem 2 nullification re-examines every buffered vector entry
by entry, with no skip state.  ``tests/properties/test_incremental_release.py``
drives it beside :class:`~repro.core.protocol.KOptimisticProcess`, whose
scans are incremental (:class:`~repro.core.output.ReleaseScan`), and
asserts identical effects, buffers and vectors.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.core.effects import Effect, ReleaseMessage, ScheduleRetransmit
from repro.core.entry import Entry, OptEntry
from repro.core.output import OutputBuffer, PendingOutput
from repro.core.protocol import KOptimisticProcess, _PendingSend
from repro.core.tables import LoggingProgressTable, SparseSnapshot, TableSnapshot
from repro.types import IncarnationId, IntervalIndex, ProcessId


class ReferenceDependencyVector:
    """The pre-columnar dict-of-Entry vector.  Same observable API as
    :class:`DependencyVector` (including COW :meth:`copy` and
    :attr:`version`)."""

    __slots__ = ("n", "_entries", "_shared", "version")

    def __init__(self, n: int, entries: Optional[Mapping[ProcessId, Entry]] = None):
        if n <= 0:
            raise ValueError(f"vector needs at least one process, got n={n}")
        self.n = n
        self._entries: Dict[ProcessId, Entry] = {}
        self._shared = False
        self.version = 0
        if entries:
            for pid, entry in entries.items():
                self.set(pid, entry)

    def _materialize(self) -> None:
        if self._shared:
            self._entries = dict(self._entries)
            self._shared = False

    def get(self, pid: ProcessId) -> OptEntry:
        self._check_pid(pid)
        return self._entries.get(pid)

    def set(self, pid: ProcessId, entry: OptEntry) -> None:
        self._check_pid(pid)
        if entry is None:
            if pid in self._entries:
                self._materialize()
                del self._entries[pid]
                self.version += 1
        elif self._entries.get(pid) != entry:
            self._materialize()
            self._entries[pid] = entry
            self.version += 1

    def nullify(self, pid: ProcessId) -> None:
        self._check_pid(pid)
        if pid in self._entries:
            self._materialize()
            del self._entries[pid]
            self.version += 1

    def nullify_entry(self, pid: ProcessId, entry: Entry) -> None:
        self.nullify(pid)

    def non_null_count(self) -> int:
        return len(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def processes(self) -> Iterator[ProcessId]:
        return iter(sorted(self._entries))

    def items(self) -> Iterator[Tuple[ProcessId, Entry]]:
        return iter(sorted(self._entries.items()))

    def iter_items(self) -> Iterable[Tuple[ProcessId, Entry]]:
        return self._entries.items()

    def merge(self, other) -> None:
        if other.n != self.n:
            raise ValueError(
                f"cannot merge vectors of different sizes ({self.n} vs {other.n})"
            )
        entries = self._entries
        changed = None
        for pid, entry in other.iter_items():
            cur = entries.get(pid)
            if cur is None or cur < entry:
                if changed is None:
                    changed = []
                changed.append((pid, entry))
        if changed is None:
            return
        self._materialize()
        entries = self._entries
        for pid, entry in changed:
            entries[pid] = entry
        self.version += 1

    def copy(self) -> "ReferenceDependencyVector":
        dup = ReferenceDependencyVector(self.n)
        dup._entries = self._entries
        dup._shared = True
        self._shared = True
        return dup

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ReferenceDependencyVector):
            return self.n == other.n and self._entries == other._entries
        return NotImplemented

    def __hash__(self):  # pragma: no cover - vectors are mutable
        raise TypeError("ReferenceDependencyVector is mutable and unhashable")

    def __repr__(self) -> str:
        inner = ", ".join(f"{e}_{pid}" for pid, e in self.items())
        return "{" + inner + "}"

    def as_dict(self) -> Dict[ProcessId, Entry]:
        return dict(self._entries)

    def _check_pid(self, pid: ProcessId) -> None:
        if not 0 <= pid < self.n:
            raise IndexError(f"process id {pid} out of range [0, {self.n})")


class ReferenceEntrySetTable:
    """Dict-of-dicts ``array[1..N] of set of entry`` (pre-columnar model)."""

    __slots__ = ("n", "_rows", "version")

    def __init__(self, n: int):
        if n <= 0:
            raise ValueError(f"table needs at least one process, got n={n}")
        self.n = n
        self._rows: List[Dict[IncarnationId, IntervalIndex]] = [{} for _ in range(n)]
        self.version = 0

    def insert(self, pid: ProcessId, entry: Entry) -> None:
        row = self._row(pid)
        existing = row.get(entry.inc)
        if existing is None or entry.sii > existing:
            row[entry.inc] = entry.sii
            self.version += 1

    def entries(self, pid: ProcessId) -> Iterator[Entry]:
        row = self._row(pid)
        return iter(Entry(t, x) for t, x in sorted(row.items()))

    def lookup(self, pid: ProcessId, inc: IncarnationId):
        return self._row(pid).get(inc)

    def row_size(self, pid: ProcessId) -> int:
        return len(self._row(pid))

    def snapshot(self) -> List[Dict[IncarnationId, IntervalIndex]]:
        return [dict(row) for row in self._rows]

    def merge_snapshot(self, snap) -> None:
        if isinstance(snap, (TableSnapshot, SparseSnapshot)):
            snap = snap.rows()
        if len(snap) != self.n:
            raise ValueError(
                f"snapshot covers {len(snap)} processes, table covers {self.n}"
            )
        changed = False
        rows = self._rows
        for pid, snap_row in enumerate(snap):
            if not snap_row:
                continue
            row = rows[pid]
            for inc, sii in snap_row.items():
                existing = row.get(inc)
                if existing is None or sii > existing:
                    row[inc] = sii
                    changed = True
        if changed:
            self.version += 1

    def _row(self, pid: ProcessId) -> Dict[IncarnationId, IntervalIndex]:
        if not 0 <= pid < self.n:
            raise IndexError(f"process id {pid} out of range [0, {self.n})")
        return self._rows[pid]


class ReferenceLoggingProgressTable(ReferenceEntrySetTable):
    __slots__ = ()

    def covers(self, pid: ProcessId, entry: Entry) -> bool:
        x_prime = self.lookup(pid, entry.inc)
        return x_prime is not None and entry.sii <= x_prime


class ReferenceIncarnationEndTable(ReferenceEntrySetTable):
    __slots__ = ()

    def invalidates(self, pid: ProcessId, entry: Entry) -> bool:
        row = self._row(pid)
        for t, x_prime in row.items():
            if t >= entry.inc and x_prime < entry.sii:
                return True
        return False

    def highest_ended_incarnation(self, pid: ProcessId) -> int:
        row = self._row(pid)
        return max(row) if row else -1

    def all_pairs(self) -> Iterator[Tuple[ProcessId, Entry]]:
        for pid in range(self.n):
            for entry in self.entries(pid):
                yield pid, entry


def _nullify_covered(tdv, log: LoggingProgressTable, skip: int = -1) -> None:
    """Drop, entry by entry, every dependency the log table covers."""
    for pid, entry in list(tdv.iter_items()):
        if pid != skip and log.covers(pid, entry):
            tdv.nullify_entry(pid, entry)


class ReferenceOutputBuffer(OutputBuffer):
    """The full-rescan Output_buffer: every update re-examines every
    pending output."""

    def update(self, log: LoggingProgressTable) -> List[PendingOutput]:
        for pending in self._pending:
            _nullify_covered(pending.tdv, log)
        ready = [p for p in self._pending if p.tdv.non_null_count() == 0]
        if ready:
            self._pending = [p for p in self._pending
                             if p.tdv.non_null_count() > 0]
        return ready


class ReferenceKOptimisticProcess(KOptimisticProcess):
    """The protocol with full-rescan Check_send_buffer, output commit and
    Theorem 2 nullification."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.output_buffer = ReferenceOutputBuffer()

    def _nullify_stable_tdv_entries(self) -> None:
        _nullify_covered(self.tdv, self.log, skip=self.pid)

    def _check_send_buffer(self) -> List[Effect]:
        for msg in self.send_buffer:
            _nullify_covered(msg.tdv, self.log)
        effects: List[Effect] = []
        still_held = []
        now = self.now_fn()
        for msg in self.send_buffer:
            limit = self.k if msg.k_limit is None else msg.k_limit
            if msg.tdv.non_null_count() > limit:
                still_held.append(msg)
                continue
            hold = now - self._send_enqueue_times.pop(msg.wire_id, now)
            self.stats.send_hold_time_total += hold
            if hold > self.stats.send_hold_time_max:
                self.stats.send_hold_time_max = hold
            self.stats.messages_released += 1
            if self.retransmit_window > 0:
                copies = self._sent_log.setdefault(msg.dst, [])
                copies.append(msg)
                del copies[: -self.retransmit_window]
            effects.append(ReleaseMessage(msg))
            if self.retransmit_timeout > 0:
                self._unacked[msg.msg_id] = _PendingSend(
                    msg, self.retransmit_timeout * self.retransmit_backoff)
                effects.append(
                    ScheduleRetransmit(msg.msg_id, self.retransmit_timeout))
        self.send_buffer = still_held
        return effects
