"""Test-only ground truth: the pre-columnar implementations.

:class:`ReferenceDependencyVector` is the dict-of-Entry dependency vector
and the ``Reference*Table`` classes are the dict-of-dicts bookkeeping
tables that :mod:`repro.core.depvec` and :mod:`repro.core.tables` replaced
with flat integer columns.  The protocol never uses them; the differential
property suite (``tests/properties/test_columnar_equivalence.py``) drives
both implementations through the same random operation sequences and
compares their observable state through ``as_dict()``/``snapshot()``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.core.entry import Entry, OptEntry
from repro.core.tables import SparseSnapshot, TableSnapshot
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
