"""Differential properties: columnar hot state vs the reference model.

The columnar rewrite (PR 8) re-laid the dependency vector and both
bookkeeping tables as flat integer columns; the pre-columnar dict
implementations are the test-only ``Reference*`` ground truth in
``tests/reference_model.py``.  These tests drive
both implementations through the same random operation sequences —
set/nullify/merge/copy for vectors; insert/gossip-merge/incarnation
bumps for tables — and assert the observable state stays equal at every
step, including:

- the packed-query fast paths (``covers_packed``/``invalidates_packed``)
  agree with the Entry-based queries on both implementations;
- the COW/version-counter contract from PR 4: ``version`` bumps exactly
  when observable state changes, copies are O(1) aliases that detach on
  first mutation, and mutations never leak across a copy;
- ``version == 0`` iff an (append-only) table is empty — the invariant
  the protocol's fast exits rely on.

Table sizes cover both storage backends: small n uses plain lists,
n >= 64 uses numpy when available (see repro.core.columnar.NP_MIN_N).
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columnar import pack
from repro.core.depvec import DependencyVector
from repro.core.entry import Entry
from repro.core.tables import (
    EntrySetTable,
    IncarnationEndTable,
    LoggingProgressTable,
    TableSnapshot,
)

from reference_model import (
    ReferenceDependencyVector,
    ReferenceIncarnationEndTable,
    ReferenceLoggingProgressTable,
)

SIZES = [5, 64]  # list backend / numpy backend (when numpy is present)

# The op-sequence tests are the expensive ones; they run a reduced example
# count in tier-1 and the full hypothesis default x10 under the nightly
# profile (see tests/conftest.py).
_NIGHTLY = os.environ.get("HYPOTHESIS_PROFILE") == "nightly"
_SEQ = settings(max_examples=600 if _NIGHTLY else 60, deadline=None)
_TAB = settings(max_examples=400 if _NIGHTLY else 40, deadline=None)

entries = st.builds(Entry, inc=st.integers(0, 9), sii=st.integers(0, 50))


def pids(n):
    return st.integers(0, n - 1)


def entry_maps(n):
    return st.dictionaries(pids(n), entries, max_size=n)


def vector_ops(n):
    return st.lists(
        st.one_of(
            st.tuples(st.just("set"), pids(n), entries),
            st.tuples(st.just("nullify"), pids(n)),
            st.tuples(st.just("merge"), entry_maps(n)),
            st.tuples(st.just("copy")),
        ),
        max_size=30,
    )


def assert_vectors_equal(col, ref):
    assert col.as_dict() == ref.as_dict()
    assert len(col) == len(ref)
    assert col.non_null_count() == ref.non_null_count()
    assert list(col.items()) == list(ref.items())


class TestVectorEquivalence:
    @pytest.mark.parametrize("n", SIZES)
    @given(data=st.data())
    @_SEQ
    def test_random_op_sequences_stay_equal(self, n, data):
        ops = data.draw(vector_ops(n))
        col = DependencyVector(n)
        ref = ReferenceDependencyVector(n)
        copies = []
        for op in ops:
            if op[0] == "set":
                col.set(op[1], op[2])
                ref.set(op[1], op[2])
            elif op[0] == "nullify":
                col.nullify(op[1])
                ref.nullify(op[1])
            elif op[0] == "merge":
                # Piggyback-then-deliver: merge a message's vector, built
                # once per implementation from the same mapping.
                col.merge(DependencyVector(n, op[1]))
                ref.merge(ReferenceDependencyVector(n, op[1]))
            else:
                copies.append((col.copy(), ref.copy(), col.as_dict()))
            assert_vectors_equal(col, ref)
            assert col.version == ref.version
        # COW discipline: snapshots kept their state across later
        # mutations of the original, on both implementations.
        for col_copy, ref_copy, frozen in copies:
            assert col_copy.as_dict() == frozen
            assert ref_copy.as_dict() == frozen

    @pytest.mark.parametrize("n", SIZES)
    @given(data=st.data())
    @_SEQ
    def test_version_bumps_iff_observable_change(self, n, data):
        col = DependencyVector(n, data.draw(entry_maps(n)))
        ref = ReferenceDependencyVector(n, col.as_dict())
        for op in data.draw(vector_ops(n)):
            before = col.as_dict()
            col_v, ref_v = col.version, ref.version
            if op[0] == "set":
                col.set(op[1], op[2])
                ref.set(op[1], op[2])
            elif op[0] == "nullify":
                col.nullify(op[1])
                ref.nullify(op[1])
            elif op[0] == "merge":
                col.merge(DependencyVector(n, op[1]))
                ref.merge(ReferenceDependencyVector(n, op[1]))
            else:
                col.copy()
                ref.copy()
            changed = col.as_dict() != before
            assert (col.version > col_v) == changed
            assert (ref.version > ref_v) == changed

    @pytest.mark.parametrize("n", SIZES)
    @given(data=st.data())
    @_SEQ
    def test_copy_mutation_never_leaks_either_direction(self, n, data):
        col = DependencyVector(n, data.draw(entry_maps(n)))
        ref = ReferenceDependencyVector(n, col.as_dict())
        frozen = col.as_dict()
        col_copy, ref_copy = col.copy(), ref.copy()
        pid, entry = data.draw(pids(n)), data.draw(entries)
        if data.draw(st.booleans()):
            col.set(pid, entry)
            ref.set(pid, entry)
            assert col_copy.as_dict() == frozen == ref_copy.as_dict()
        else:
            col_copy.set(pid, entry)
            ref_copy.set(pid, entry)
            assert col.as_dict() == frozen == ref.as_dict()
        assert_vectors_equal(col, ref)
        assert_vectors_equal(col_copy, ref_copy)

    @pytest.mark.parametrize("n", SIZES)
    @given(data=st.data())
    @_SEQ
    def test_packed_accessors_agree_with_entry_form(self, n, data):
        col = DependencyVector(n, data.draw(entry_maps(n)))
        for pid in range(n):
            entry = col.get(pid)
            packed = col.get_packed(pid)
            if entry is None:
                assert packed == -1
            else:
                assert packed == pack(entry.inc, entry.sii)
        assert [(pid, pack(e.inc, e.sii)) for pid, e in col.items()] == list(
            col.iter_packed()
        )


def rows_strategy(n):
    return st.lists(
        st.dictionaries(st.integers(0, 9), st.integers(0, 50), max_size=4),
        min_size=n, max_size=n,
    )


def table_ops(n):
    return st.lists(
        st.one_of(
            st.tuples(st.just("insert"), pids(n), entries),
            st.tuples(st.just("merge_legacy"), rows_strategy(n)),
            st.tuples(st.just("merge_snap"), rows_strategy(n)),
        ),
        max_size=15,
    )


def apply_table_op(table, op, columnar_side):
    if op[0] == "insert":
        table.insert(op[1], op[2])
    elif op[0] == "merge_legacy":
        table.merge_snapshot(op[1])
    else:
        # Columnar gossip path: rebuild the rows as a TableSnapshot so the
        # elementwise-max merge runs; the reference gets the same rows.
        if columnar_side:
            donor = EntrySetTable(table.n)
            donor.merge_snapshot(op[1])
            snap = donor.snapshot_columns()
            assert isinstance(snap, TableSnapshot)
            table.merge_snapshot(snap)
        else:
            table.merge_snapshot(op[1])


def assert_tables_equal(col, ref):
    assert col.snapshot() == ref.snapshot()
    assert col.snapshot_columns().rows() == ref.snapshot()
    for pid in range(col.n):
        assert list(col.entries(pid)) == list(ref.entries(pid))
        assert col.row_size(pid) == ref.row_size(pid)
        for inc in range(12):
            assert col.lookup(pid, inc) == ref.lookup(pid, inc)


class TestTableEquivalence:
    @pytest.mark.parametrize("n", SIZES)
    @given(data=st.data())
    @_TAB
    def test_log_table_and_covers_queries(self, n, data):
        col = LoggingProgressTable(n)
        ref = ReferenceLoggingProgressTable(n)
        for op in data.draw(table_ops(n)):
            before = col.snapshot()
            version = col.version
            apply_table_op(col, op, columnar_side=True)
            apply_table_op(ref, op, columnar_side=False)
            assert (col.version > version) == (col.snapshot() != before)
            assert (col.version == 0) == (not any(col.snapshot()))
        assert_tables_equal(col, ref)
        for _ in range(10):
            pid, entry = data.draw(pids(n)), data.draw(entries)
            expected = ref.covers(pid, entry)
            assert col.covers(pid, entry) == expected
            assert col.covers_packed(pid, pack(entry.inc, entry.sii)) == expected
        # The whole-vector query agrees with the per-entry reference.
        vec = data.draw(st.dictionaries(pids(n), entries, max_size=8))
        skip = data.draw(st.sampled_from([-1, *vec]))
        assert col.covered_pids(DependencyVector(n, vec), skip=skip) == [
            pid for pid in sorted(vec)
            if pid != skip and ref.covers(pid, vec[pid])]

    @pytest.mark.parametrize("n", SIZES)
    @given(data=st.data())
    @_TAB
    def test_iet_table_and_orphan_queries(self, n, data):
        col = IncarnationEndTable(n)
        ref = ReferenceIncarnationEndTable(n)
        for op in data.draw(table_ops(n)):
            apply_table_op(col, op, columnar_side=True)
            apply_table_op(ref, op, columnar_side=False)
        assert_tables_equal(col, ref)
        for pid in range(n):
            assert (col.highest_ended_incarnation(pid)
                    == ref.highest_ended_incarnation(pid))
        assert sorted(col.all_pairs()) == sorted(ref.all_pairs())
        for _ in range(10):
            pid, entry = data.draw(pids(n)), data.draw(entries)
            expected = ref.invalidates(pid, entry)
            assert col.invalidates(pid, entry) == expected
            assert (col.invalidates_packed(pid, pack(entry.inc, entry.sii))
                    == expected)

    @pytest.mark.parametrize("n", SIZES)
    @given(inserts=st.lists(st.tuples(st.integers(0, 4), entries), max_size=20))
    def test_incarnation_bump_grows_stride_transparently(self, n, inserts):
        # Repeated crashes push incarnations past INITIAL_STRIDE; growth
        # must be invisible to every query.
        col = IncarnationEndTable(n)
        ref = ReferenceIncarnationEndTable(n)
        for bump, entry in inserts:
            entry = Entry(entry.inc + 4 * bump, entry.sii)
            col.insert(0, entry)
            ref.insert(0, entry)
        assert_tables_equal(col, ref)
        assert col.highest_ended_incarnation(0) == ref.highest_ended_incarnation(0)
