"""The two per-process bookkeeping tables of Figure 2.

``log``  — logging progress table: for each process and incarnation, the
           highest state-interval index known to be *stable* (reconstructible
           from stable storage).  Populated by logging-progress
           notifications, by failure announcements (Corollary 1) and by a
           process's own checkpoints (Corollary 2).

``iet``  — incarnation end table: for each process and incarnation, the
           index at which that incarnation *ended*; any dependency on a
           higher index of that (or an earlier) incarnation is an orphan.

Both tables are declared ``array[1..N] of set of entry`` and share the
paper's ``Insert(se, (t,x'))`` routine, which keeps a single entry per
incarnation holding the maximum index.

Storage layout (columnar)
-------------------------

Rows are stored as one flat integer column of ``n * stride`` slots, slot
``pid * stride + inc`` holding the maximum index recorded for that
``(pid, inc)`` pair or ``-1`` when absent.  ``stride`` (max incarnations
per row) grows geometrically on demand; incarnation counts are tiny in
practice (one per crash of a process), so the column stays dense and a
whole-table gossip merge is a single elementwise-max pass — ``np.maximum``
when numpy is available and the table is large, a flat list loop
otherwise.  Change detection (and hence :attr:`version` maintenance) is an
explicit elementwise comparison: values only ever grow under max-merge, so
``theirs > mine`` marks exactly the changed slots.  (An earlier column-sum
trick wrapped silently at 2**63 and could miss changes in a batched merge.)

Very large tables (``n >= columnar.SPARSE_MIN_N``) switch to a sparse
dict-of-rows backend: dense columns cost O(n * stride) *per process table*
— quadratic per simulation — while the rows a process actually learns stay
bounded by gossip reach.  Sparse tables gossip :class:`SparseSnapshot`
(explicit ``(pid, inc, sii)`` triples), which doubles as the delta
encoding: with :meth:`EntrySetTable.enable_changelog` a notification can
carry only the entries changed since the peer's last acknowledged
changelog position (:meth:`EntrySetTable.delta_since`).

The previous dict-of-dicts implementation lives on as test-only ground
truth (``tests/reference_model.py``); the property suite in
``tests/properties/test_columnar_equivalence.py`` drives both through
random op sequences and asserts equal observable state.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.core import columnar
from repro.core.columnar import PACK_MASK, PACK_SHIFT
from repro.core.entry import Entry
from repro.types import IncarnationId, IntervalIndex, ProcessId

_np = columnar.NUMPY


class TableSnapshot:
    """An immutable columnar copy of a table, piggybacked by gossip.

    Carries the raw column (same ``pid * stride + inc`` layout) so the
    receiver's :meth:`EntrySetTable.merge_snapshot` is one elementwise-max
    pass instead of a per-entry dict walk.  :meth:`rows` converts to the
    legacy list-of-dicts form (used by the wire codec and tests);
    :meth:`restrict` keeps a single row (own-progress-only gossip).
    """

    __slots__ = ("n", "stride", "cols")

    def __init__(self, n: int, stride: int, cols) -> None:
        self.n = n
        self.stride = stride
        self.cols = cols

    def rows(self) -> List[Dict[IncarnationId, IntervalIndex]]:
        """Legacy ``incarnation -> max index`` dicts, one per process."""
        out: List[Dict[IncarnationId, IntervalIndex]] = []
        stride, cols = self.stride, self.cols
        for pid in range(self.n):
            base = pid * stride
            row: Dict[IncarnationId, IntervalIndex] = {}
            for inc in range(stride):
                value = cols[base + inc]
                if value >= 0:
                    row[inc] = int(value)
            out.append(row)
        return out

    def restrict(self, pid: ProcessId) -> "TableSnapshot":
        """A snapshot carrying only ``pid``'s row (others empty)."""
        stride = self.stride
        base = pid * stride
        if _np is not None and isinstance(self.cols, _np.ndarray):
            cols = _np.full(self.n * stride, -1, dtype=_np.int64)
            cols[base:base + stride] = self.cols[base:base + stride]
        else:
            cols = [-1] * (self.n * stride)
            cols[base:base + stride] = self.cols[base:base + stride]
        return TableSnapshot(self.n, stride, cols)

    # Duck compatibility with the legacy list-of-dicts snapshot form, so
    # callers (and tests) can keep indexing/iterating rows directly.

    def __getitem__(self, pid: int) -> Dict[IncarnationId, IntervalIndex]:
        if not 0 <= pid < self.n:
            raise IndexError(f"process id {pid} out of range [0, {self.n})")
        base = pid * self.stride
        return {inc: int(self.cols[base + inc])
                for inc in range(self.stride)
                if self.cols[base + inc] >= 0}

    def __iter__(self):
        return iter(self.rows())

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TableSnapshot):
            return self.rows() == other.rows()
        if isinstance(other, list):
            return self.rows() == other
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        populated = sum(1 for v in self.cols if v >= 0)
        return f"TableSnapshot(n={self.n}, stride={self.stride}, entries={populated})"


class SparseSnapshot:
    """An immutable sparse table snapshot: explicit ``(pid, inc, sii)`` triples.

    Two producers:

    - sparse-backend tables (``n >= columnar.SPARSE_MIN_N``), whose dense
      column form would cost O(n * stride) per notification;
    - delta gossip (:meth:`EntrySetTable.delta_since`), which carries only
      the entries changed since the peer's last acknowledged changelog
      position instead of the whole table.

    Merging is order-insensitive (entries are global facts combined by
    max), so a receiver treats full and delta snapshots identically.
    Duck-compatible with :class:`TableSnapshot` for the wire codec and
    tests (``rows``/``restrict``/indexing/equality).
    """

    __slots__ = ("n", "entries", "full")

    def __init__(self, n: int, entries, full: bool = True) -> None:
        self.n = n
        self.entries: Tuple[Tuple[int, int, int], ...] = tuple(entries)
        #: False when this snapshot carries only a changelog suffix.
        self.full = full

    def rows(self) -> List[Dict[IncarnationId, IntervalIndex]]:
        out: List[Dict[IncarnationId, IntervalIndex]] = [{} for _ in range(self.n)]
        for pid, inc, sii in self.entries:
            out[pid][inc] = sii
        return out

    def restrict(self, pid: ProcessId) -> "SparseSnapshot":
        return SparseSnapshot(
            self.n, [e for e in self.entries if e[0] == pid], full=self.full)

    def __getitem__(self, pid: int) -> Dict[IncarnationId, IntervalIndex]:
        if not 0 <= pid < self.n:
            raise IndexError(f"process id {pid} out of range [0, {self.n})")
        return {inc: sii for p, inc, sii in self.entries if p == pid}

    def __iter__(self):
        return iter(self.rows())

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (SparseSnapshot, TableSnapshot)):
            return self.rows() == other.rows()
        if isinstance(other, list):
            return self.rows() == other
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "full" if self.full else "delta"
        return f"SparseSnapshot(n={self.n}, {kind}, entries={len(self.entries)})"


def _snapshot_entries(snap: TableSnapshot):
    """Populated ``(pid, inc, sii)`` triples of a dense snapshot."""
    cols, stride = snap.cols, snap.stride
    if _np is not None and isinstance(cols, _np.ndarray):
        for pos in _np.nonzero(cols >= 0)[0].tolist():
            yield pos // stride, pos % stride, int(cols[pos])
        return
    for pos, value in enumerate(cols):
        if value >= 0:
            yield pos // stride, pos % stride, value


class EntrySetTable:
    """``array[1..N] of set of entry`` with the paper's Insert semantics.

    :attr:`version` increases exactly when an :meth:`insert` (or snapshot
    merge) actually extends the table, so scan-heavy callers — send-buffer
    release checks, Theorem-2 nullification — can skip whole rescans when
    the table has not learned anything new since their last pass.  Since
    entries are never removed, ``version == 0`` iff the table is empty.
    """

    __slots__ = ("n", "version", "_stride", "_cols", "_rows", "_use_np",
                 "_track", "_changes", "changelog_epoch")

    INITIAL_STRIDE = 4
    #: Changelog compaction threshold: above this many recorded changes the
    #: log is cleared and the epoch bumped (peers resync with one full
    #: snapshot, then resume deltas).
    CHANGELOG_LIMIT = 4096

    def __init__(self, n: int, sparse: Optional[bool] = None):
        if n <= 0:
            raise ValueError(f"table needs at least one process, got n={n}")
        self.n = n
        self.version = 0
        #: Delta-gossip changelog (see :meth:`enable_changelog`).
        self._track = False
        self._changes: List[Tuple[int, int]] = []
        self.changelog_epoch = 0
        if sparse is None:
            sparse = columnar.use_sparse_for(n)
        if sparse:
            self._rows: Optional[Dict[int, Dict[int, int]]] = {}
            self._cols = None
            self._use_np = False
            self._stride = 1  # max incarnation count seen (informational)
        else:
            self._rows = None
            self._stride = self.INITIAL_STRIDE
            self._use_np = columnar.use_numpy_for(n)
            self._cols = self._new_cols(n * self._stride)

    # -- changelog (delta gossip) --------------------------------------------

    def enable_changelog(self) -> None:
        """Start recording changed ``(pid, inc)`` positions so
        :meth:`delta_since` can encode notifications incrementally."""
        self._track = True

    @property
    def changelog_position(self) -> Tuple[int, int]:
        """Opaque cursor ``(epoch, offset)`` for :meth:`delta_since`."""
        return (self.changelog_epoch, len(self._changes))

    def _note_change(self, pid: int, inc: int) -> None:
        self._changes.append((pid, inc))
        if len(self._changes) > self.CHANGELOG_LIMIT:
            self._changes.clear()
            self.changelog_epoch += 1

    def _note_changes(self, pairs) -> None:
        self._changes.extend(pairs)
        if len(self._changes) > self.CHANGELOG_LIMIT:
            self._changes.clear()
            self.changelog_epoch += 1

    def delta_since(self, position: Tuple[int, int]) -> Optional[SparseSnapshot]:
        """Entries changed since ``position``, or ``None`` when the cursor
        is stale (different epoch / tracking off) and a full snapshot is
        needed.  Values are read from the *current* table, so a position
        changed twice is carried once, at its latest value."""
        epoch, offset = position
        if not self._track or epoch != self.changelog_epoch:
            return None
        if offset > len(self._changes):
            return None
        changed = sorted(set(self._changes[offset:]))
        entries = []
        for pid, inc in changed:
            sii = self.lookup(pid, inc)
            if sii is not None:
                entries.append((pid, inc, sii))
        return SparseSnapshot(self.n, entries, full=False)

    # -- storage helpers -----------------------------------------------------

    def _new_cols(self, size: int):
        if self._use_np:
            return _np.full(size, -1, dtype=_np.int64)
        return [-1] * size

    def _grow(self, min_stride: int) -> None:
        new_stride = self._stride
        while new_stride < min_stride:
            new_stride *= 2
        new_cols = self._new_cols(self.n * new_stride)
        old_stride, old_cols = self._stride, self._cols
        if self._use_np:
            new_cols.reshape(self.n, new_stride)[:, :old_stride] = (
                old_cols.reshape(self.n, old_stride))
        else:
            for pid in range(self.n):
                src = pid * old_stride
                dst = pid * new_stride
                new_cols[dst:dst + old_stride] = old_cols[src:src + old_stride]
        self._stride = new_stride
        self._cols = new_cols

    def _check_pid(self, pid: ProcessId) -> None:
        if not 0 <= pid < self.n:
            raise IndexError(f"process id {pid} out of range [0, {self.n})")

    # -- the paper's operations ----------------------------------------------

    def insert(self, pid: ProcessId, entry: Entry) -> None:
        """``Insert(se, (t, x'))``: keep the per-incarnation maximum index."""
        self._check_pid(pid)
        inc = entry.inc
        if self._rows is not None:
            row = self._rows.get(pid)
            if row is None:
                row = self._rows[pid] = {}
            if entry.sii > row.get(inc, -1):
                row[inc] = entry.sii
                if inc >= self._stride:
                    self._stride = inc + 1
                self.version += 1
                if self._track:
                    self._note_change(pid, inc)
            return
        if inc >= self._stride:
            self._grow(inc + 1)
        pos = pid * self._stride + inc
        if entry.sii > self._cols[pos]:
            self._cols[pos] = entry.sii
            self.version += 1
            if self._track:
                self._note_change(pid, inc)

    def entries(self, pid: ProcessId) -> Iterator[Entry]:
        """All entries recorded for ``pid``, in incarnation order."""
        self._check_pid(pid)
        if self._rows is not None:
            row = self._rows.get(pid)
            if not row:
                return iter(())
            return iter([Entry(inc, sii) for inc, sii in sorted(row.items())])
        base = pid * self._stride
        cols = self._cols
        return iter([Entry(inc, int(cols[base + inc]))
                     for inc in range(self._stride)
                     if cols[base + inc] >= 0])

    def lookup(self, pid: ProcessId, inc: IncarnationId):
        """The recorded index for ``(pid, inc)`` or ``None``."""
        self._check_pid(pid)
        if self._rows is not None:
            row = self._rows.get(pid)
            return row.get(inc) if row else None
        if not 0 <= inc < self._stride:
            return None
        value = self._cols[pid * self._stride + inc]
        return int(value) if value >= 0 else None

    def row_size(self, pid: ProcessId) -> int:
        self._check_pid(pid)
        if self._rows is not None:
            row = self._rows.get(pid)
            return len(row) if row else 0
        base = pid * self._stride
        return sum(1 for inc in range(self._stride) if self._cols[base + inc] >= 0)

    def snapshot(self) -> List[Dict[IncarnationId, IntervalIndex]]:
        """Deep copy of all rows as legacy ``inc -> max index`` dicts."""
        return self.snapshot_columns().rows()

    def snapshot_columns(self) -> Union[TableSnapshot, SparseSnapshot]:
        """Columnar (or sparse) copy of the table — what gossip piggybacks."""
        if self._rows is not None:
            entries = []
            for pid in sorted(self._rows):
                row = self._rows[pid]
                for inc in sorted(row):
                    entries.append((pid, inc, row[inc]))
            return SparseSnapshot(self.n, entries)
        if self._use_np:
            cols = self._cols.copy()
        else:
            cols = self._cols[:]
        return TableSnapshot(self.n, self._stride, cols)

    def merge_snapshot(
        self,
        snap: Union[TableSnapshot, List[Dict[IncarnationId, IntervalIndex]]],
    ) -> None:
        """Insert every entry of a snapshot (Receive_log's outer loop).

        Accepts a :class:`TableSnapshot` (the fast columnar path — one
        elementwise-max pass) or the legacy list-of-dicts form (wire codec,
        archived counterexamples).  Gossip makes this the most frequent
        table operation, and most merges bring no news at all.
        """
        if isinstance(snap, TableSnapshot):
            if snap.n != self.n:
                raise ValueError(
                    f"snapshot covers {snap.n} processes, table covers {self.n}"
                )
            if self._rows is not None:
                self._merge_entries(_snapshot_entries(snap))
            else:
                self._merge_columns(snap)
            return
        if isinstance(snap, SparseSnapshot):
            if snap.n != self.n:
                raise ValueError(
                    f"snapshot covers {snap.n} processes, table covers {self.n}"
                )
            self._merge_entries(snap.entries)
            return
        if len(snap) != self.n:
            raise ValueError(
                f"snapshot covers {len(snap)} processes, table covers {self.n}"
            )
        self._merge_entries(
            (pid, inc, sii)
            for pid, snap_row in enumerate(snap)
            for inc, sii in snap_row.items())

    def merge_snapshots(self, snaps) -> None:
        """Merge a batch of snapshots (one gossip tick's worth) in one pass.

        Max-merge is commutative and associative, so the final table state
        is independent of merge order.  On the dense numpy backend, dense
        snapshots of equal stride are combined first with one stacked
        ``np.maximum.reduce`` and merged as a single snapshot — one
        elementwise pass plus one change-detection compare for the whole
        batch instead of N of each.
        """
        snaps = list(snaps)
        if len(snaps) <= 1:
            for snap in snaps:
                self.merge_snapshot(snap)
            return
        if self._rows is None and self._use_np:
            groups: Dict[int, List] = {}
            rest = []
            for snap in snaps:
                if (isinstance(snap, TableSnapshot)
                        and isinstance(snap.cols, _np.ndarray)):
                    groups.setdefault(snap.stride, []).append(snap.cols)
                else:
                    rest.append(snap)
            for stride in sorted(groups):
                group = groups[stride]
                cols = group[0] if len(group) == 1 else _np.maximum.reduce(group)
                self.merge_snapshot(TableSnapshot(self.n, stride, cols))
            for snap in rest:
                self.merge_snapshot(snap)
            return
        for snap in snaps:
            self.merge_snapshot(snap)

    def _merge_entries(self, entries) -> None:
        """Insert ``(pid, inc, sii)`` triples; shared by the sparse-snapshot,
        sparse-backend, and legacy list-of-dicts merge paths."""
        changed = False
        track = self._track
        if self._rows is not None:
            rows = self._rows
            for pid, inc, sii in entries:
                row = rows.get(pid)
                if row is None:
                    row = rows[pid] = {}
                if sii > row.get(inc, -1):
                    row[inc] = sii
                    if inc >= self._stride:
                        self._stride = inc + 1
                    changed = True
                    if track:
                        self._note_change(pid, inc)
        else:
            for pid, inc, sii in entries:
                if inc >= self._stride:
                    self._grow(inc + 1)
                pos = pid * self._stride + inc
                if sii > self._cols[pos]:
                    self._cols[pos] = sii
                    changed = True
                    if track:
                        self._note_change(pid, inc)
        if changed:
            self.version += 1

    def _merge_columns(self, snap: TableSnapshot) -> None:
        if snap.stride > self._stride:
            self._grow(snap.stride)
        mine = self._cols
        theirs = snap.cols
        if self._use_np and isinstance(theirs, _np.ndarray):
            if snap.stride == self._stride:
                view = mine.reshape(self.n, self._stride)
                theirs2 = theirs.reshape(self.n, snap.stride)
            else:
                view = mine.reshape(self.n, self._stride)[:, :snap.stride]
                theirs2 = theirs.reshape(self.n, snap.stride)
            # Explicit elementwise comparison for change detection.  The
            # previous column-sum check wrapped silently at 2**63 (entries
            # are packed ints with the incarnation in the high bits, so a
            # batched merge can overflow the int64 sum and miss offsetting
            # changes); a boolean compare cannot, and it also yields the
            # changed positions the delta changelog needs.
            grew = theirs2 > view
            if grew.any():
                _np.maximum(view, theirs2, out=view)
                self.version += 1
                if self._track:
                    rows_idx, cols_idx = _np.nonzero(grew)
                    self._note_changes(
                        zip(rows_idx.tolist(), cols_idx.tolist()))
            return
        changed = False
        track = self._track
        if snap.stride == self._stride:
            for i in range(len(mine)):
                value = theirs[i]
                if value > mine[i]:
                    mine[i] = value
                    changed = True
                    if track:
                        self._note_change(i // self._stride, i % self._stride)
        else:
            for pid in range(self.n):
                src = pid * snap.stride
                dst = pid * self._stride
                for inc in range(snap.stride):
                    value = theirs[src + inc]
                    if value > mine[dst + inc]:
                        mine[dst + inc] = value
                        changed = True
                        if track:
                            self._note_change(pid, inc)
        if changed:
            self.version += 1

    def __repr__(self) -> str:
        rows = []
        for pid in range(self.n):
            entries = list(self.entries(pid))
            if entries:
                inner = ", ".join(str(e) for e in entries)
                rows.append(f"P{pid}:{{{inner}}}")
        return f"{type(self).__name__}[{'; '.join(rows)}]"


class LoggingProgressTable(EntrySetTable):
    """The ``log`` table: per (process, incarnation) highest *stable* index."""

    __slots__ = ()

    def covers(self, pid: ProcessId, entry: Entry) -> bool:
        """True iff interval ``entry`` of ``pid`` is known stable.

        This is the pseudo-code's recurring test
        ``(t, x') in log[j]  and  x <= x'``.
        """
        self._check_pid(pid)
        inc = entry.inc
        if self._rows is not None:
            row = self._rows.get(pid)
            return row is not None and row.get(inc, -1) >= entry.sii
        if not 0 <= inc < self._stride:
            return False
        value = self._cols[pid * self._stride + inc]
        return value >= entry.sii

    def covers_packed(self, pid: ProcessId, packed: int) -> bool:
        """:meth:`covers` on a packed ``(inc << SHIFT) | sii`` entry.

        Hot path — ``pid`` comes from a dependency vector and is already
        validated, so no range check here.
        """
        rows = self._rows
        if rows is not None:
            row = rows.get(pid)
            if row is None:
                return False
            return row.get(packed >> PACK_SHIFT, -1) >= (packed & PACK_MASK)
        inc = packed >> PACK_SHIFT
        if inc >= self._stride:
            return False
        value = self._cols[pid * self._stride + inc]
        return value >= (packed & PACK_MASK)


class IncarnationEndTable(EntrySetTable):
    """The ``iet`` table: per (process, incarnation) ending index.

    An entry ``(t, x')`` announces that all state intervals with index
    greater than ``x'`` belonging to incarnation ``t`` — or to any earlier
    incarnation — of that process have been rolled back.
    """

    __slots__ = ()

    def invalidates(self, pid: ProcessId, entry: Entry) -> bool:
        """True iff a dependency on ``entry`` of ``pid`` is an orphan.

        Check_orphan's test: ``exists t: (t, x') in iet[j]  and
        t >= dep.inc  and  x' < dep.sii``.
        """
        self._check_pid(pid)
        if self.version == 0:
            return False
        if self._rows is not None:
            row = self._rows.get(pid)
            if not row:
                return False
            inc, sii = entry.inc, entry.sii
            return any(t >= inc and value < sii for t, value in row.items())
        base = pid * self._stride
        cols = self._cols
        sii = entry.sii
        for t in range(max(entry.inc, 0), self._stride):
            value = cols[base + t]
            if 0 <= value < sii:
                return True
        return False

    def invalidates_packed(self, pid: ProcessId, packed: int) -> bool:
        """:meth:`invalidates` on a packed entry (no pid range check)."""
        if self.version == 0:
            return False
        rows = self._rows
        if rows is not None:
            row = rows.get(pid)
            if not row:
                return False
            inc = packed >> PACK_SHIFT
            sii = packed & PACK_MASK
            return any(t >= inc and value < sii for t, value in row.items())
        sii = packed & PACK_MASK
        base = pid * self._stride
        cols = self._cols
        for t in range(packed >> PACK_SHIFT, self._stride):
            value = cols[base + t]
            if 0 <= value < sii:
                return True
        return False

    def highest_ended_incarnation(self, pid: ProcessId) -> int:
        """Highest incarnation of ``pid`` known to have ended (-1 if none)."""
        self._check_pid(pid)
        if self._rows is not None:
            row = self._rows.get(pid)
            return max(row) if row else -1
        base = pid * self._stride
        for t in range(self._stride - 1, -1, -1):
            if self._cols[base + t] >= 0:
                return t
        return -1

    def all_pairs(self) -> Iterator[Tuple[ProcessId, Entry]]:
        """(pid, end-entry) pairs across all processes (used by recovery)."""
        for pid in range(self.n):
            for entry in self.entries(pid):
                yield pid, entry
