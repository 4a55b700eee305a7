"""The code-space merge against the row-at-a-time oracle.

``merge_oracle.py`` holds the merge as it used to run: one Python dict per
surviving row.  Every merge of every random history below is run both ways
and must agree on everything observable — dictionary values *and their
types* (``1`` / ``1.0`` / ``True`` collide under ``==``), code vectors,
stamps, byte accounting, ``MergeStats`` and the primary-key lookup of
every key ever written, of absent keys and of other spellings of keys.

The guard tests pin the reasons the merge was rewritten: on a table of any
size it makes no per-row call into the storage classes, and it looks no
value up in a dictionary — the new one comes out of one stable sort.
``MERGE_PARITY_EXAMPLES`` sets the property's example budget (CI's chaos
job raises it).
"""

import math
import os
from unittest import mock

import numpy as np

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.storage import (
    ColumnDef,
    ColumnFragment,
    DeltaDictionary,
    IntVector,
    MainDictionary,
    Partition,
    Schema,
    SqlType,
    Table,
    merge_table,
    threshold_aging,
)

from .merge_oracle import assert_pk_lookups, build_group_by_rows

# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------


def assert_same_partition(actual: Partition, expected: Partition) -> None:
    assert actual.name == expected.name
    assert actual.kind == expected.kind == "main"
    assert actual.row_count == expected.row_count
    assert actual.column_names() == expected.column_names()
    for name in expected.column_names():
        got, want = actual.column(name), expected.column(name)
        assert isinstance(got.dictionary, MainDictionary)
        values = got.dictionary.values()
        assert values == want.dictionary.values(), name
        assert [type(v) for v in values] == [
            type(v) for v in want.dictionary.values()
        ], name
        assert got.codes().tolist() == want.codes().tolist(), name
        assert got.has_nulls() == want.has_nulls(), name
        assert got.nbytes() == want.nbytes(), name
    assert actual.cts_array().tolist() == expected.cts_array().tolist()
    assert actual.dts_array().tolist() == expected.dts_array().tolist()
    assert actual.nbytes() == expected.nbytes()


def merge_and_compare(
    table: Table, snapshot: int, keep_history: bool, keys, group_name=None
):
    """One ``merge_table`` call checked against the oracle's staging;
    ``keys`` are every primary key ever written to ``table``."""
    groups = [table.group(group_name)] if group_name else table.groups()
    expected = [
        build_group_by_rows(table, group, snapshot, keep_history) for group in groups
    ]
    # A group without a delta row and without a stamped main row is passed
    # over: its main stays the object it was — and must still equal what
    # the oracle rebuilds from it.
    idle = {
        group.name: group.main
        for group in groups
        if not any(p.row_count for p in group.delta_partitions())
        and not group.main.dts_array().any()
    }
    version = table.version
    stats = merge_table(
        table, snapshot, group_name=group_name, keep_history=keep_history
    )
    for group, (want_main, _moved, _dropped) in zip(groups, expected):
        assert all(p.row_count == 0 for p in group.delta_partitions())
        if group.name in idle:
            assert group.main is idle[group.name]
        assert_same_partition(group.main, want_main)
    assert stats.groups_merged == len(groups) - len(idle)
    assert (table.version == version) == (len(idle) == len(groups))
    assert stats.rows_moved == sum(moved for _main, moved, _dropped in expected)
    assert stats.rows_dropped == sum(dropped for _main, _moved, dropped in expected)
    assert_pk_lookups(table, keys)
    return stats


# ----------------------------------------------------------------------
# random histories
# ----------------------------------------------------------------------
#: Value domains are small on purpose: duplicates, shared values between
#: main and delta, and values whose last reference gets invalidated.
NAN = float("nan")  # one object: a dictionary keeps it once, as ``dict`` does
COLUMN_KINDS = {
    "int": (SqlType.INT, st.one_of(st.none(), st.integers(-3, 12))),
    # Under ``untyped_columns`` a column keeps what it is given, so equal
    # values of different type meet in one dictionary.
    "float": (
        SqlType.FLOAT,
        st.sampled_from([None, 0, 0.0, -0.0, False, 1, 1.0, True, 2.5, NAN]),
    ),
    "str": (SqlType.TEXT, st.sampled_from([None, "", "a", "ab", "b", "é"])),
    "null": (SqlType.INT, st.none()),
}
YEARS = st.sampled_from([2012, 2013, 2014, 2015])


def untyped_columns():
    """Columns keep whatever value they are given while this is active."""
    return mock.patch.multiple(
        SqlType, validate=lambda self, value: None, coerce=lambda self, value: value
    )


@st.composite
def histories(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(COLUMN_KINDS)), max_size=4))
    aged = draw(st.booleans())
    row = st.fixed_dictionaries(
        {"year": YEARS, **{f"c{i}": COLUMN_KINDS[k][1] for i, k in enumerate(kinds)}}
    )
    changes = st.fixed_dictionaries(
        {}, optional={f"c{i}": COLUMN_KINDS[k][1] for i, k in enumerate(kinds)}
    )
    group = st.sampled_from([None, "hot", "cold"] if aged else [None, "default"])
    op = st.one_of(
        st.tuples(st.just("insert"), row),
        st.tuples(st.just("insert"), row),
        st.tuples(st.just("update"), st.integers(0, 1 << 16), changes),
        st.tuples(st.just("update"), st.integers(0, 1 << 16), changes),
        st.tuples(st.just("delete"), st.integers(0, 1 << 16)),
        # A deleted key written again; its year may route it to the other
        # hot/cold group than its dead versions.
        st.tuples(st.just("reinsert"), st.integers(0, 1 << 16), row),
        st.tuples(st.just("merge"), group, st.booleans()),
    )
    return {
        "kinds": kinds,
        "aged": aged,
        "separate_update_delta": draw(st.booleans()),
        "ops": draw(st.lists(op, max_size=40)),
        "final_group": draw(group),
        "final_keep_history": draw(st.booleans()),
    }


def make_table(history) -> Table:
    columns = [
        ColumnDef("id", SqlType.INT, nullable=False),
        ColumnDef("year", SqlType.INT, nullable=False),
    ] + [
        ColumnDef(f"c{i}", COLUMN_KINDS[kind][0])
        for i, kind in enumerate(history["kinds"])
    ]
    return Table(
        "t",
        Schema(columns, primary_key="id"),
        aging_rule=threshold_aging("year", 2014) if history["aged"] else None,
        separate_update_delta=history["separate_update_delta"],
    )


def lookup_keys(next_id: int) -> list:
    """Every key written so far, and keys the index must answer as a dict of
    the live keys does: absent ones (a negative key, the next and a later
    id, one past int64) and other spellings of small keys (``1.0``,
    ``True``, ``5.0`` find the int, ``5.5`` and ``'1'`` nothing)."""
    return [*range(next_id), -3, next_id, next_id + 5, 2**70, 1.0, True, 5.0, 5.5, "1"]


@settings(
    max_examples=int(os.environ.get("MERGE_PARITY_EXAMPLES", "120")),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(histories())
def test_every_merge_of_a_random_history_matches_the_oracle(history):
    table = make_table(history)
    live = []  # keys with a live version, in insertion order
    dead = []  # deleted keys
    next_id = 0
    tid = 0
    with untyped_columns():
        for op in history["ops"]:
            tid += 1
            if op[0] == "insert":
                table.insert({"id": next_id, **op[1]}, tid)
                live.append(next_id)
                next_id += 1
            elif op[0] == "update" and live:
                # The same key may be picked again and again: each update
                # invalidates the version the previous one wrote.
                table.update(live[op[1] % len(live)], op[2], tid)
            elif op[0] == "delete" and live:
                key = live.pop(op[1] % len(live))
                table.delete(key, tid)
                dead.append(key)
            elif op[0] == "reinsert" and dead:
                key = dead.pop(op[1] % len(dead))
                table.insert({"id": key, **op[2]}, tid)
                live.append(key)
            elif op[0] == "merge":
                merge_and_compare(
                    table, tid, op[2], lookup_keys(next_id), group_name=op[1]
                )
            # Between merges the lookups answer from the written keys'
            # overlay and the mains' sorted key dictionaries together.
            assert_pk_lookups(table, lookup_keys(next_id))
        merge_and_compare(
            table,
            tid,
            history["final_keep_history"],
            lookup_keys(next_id),
            group_name=history["final_group"],
        )
    alive = set(live)
    for key in range(next_id):
        assert (table.pk_lookup(key) is not None) == (key in alive), key


def test_equal_values_of_different_type_keep_the_earliest_source():
    """``1 == 1.0 == True``: the new dictionary holds one of them, the one
    the first surviving row in (main, delta, update delta) order refers to."""
    history = {"kinds": ["float"], "aged": False, "separate_update_delta": True}
    table = make_table(history)
    with untyped_columns():
        table.insert({"id": 0, "year": 2014, "c0": 1}, tid=1)
        merge_and_compare(table, 1, False, range(1))
        table.insert({"id": 1, "year": 2014, "c0": 1.0}, tid=2)
        table.insert({"id": 2, "year": 2014, "c0": 0.0}, tid=3)
        table.update(1, {"c0": False}, tid=4)  # lands in the update delta
        table.insert({"id": 3, "year": 2014, "c0": True}, tid=5)
        merge_and_compare(table, 5, False, range(4))
        # 1 from the main beats True from the delta; 0.0 from the delta
        # beats False from the update delta; 1.0's only row was invalidated.
        values = table.partition("main").column("c0").dictionary.values()
        assert [(v, type(v)) for v in values] == [(0.0, float), (1, int)]
        # Once no surviving main row refers to the main's representative,
        # the delta's takes over.
        table.delete(0, tid=6)
        table.delete(3, tid=7)
        table.insert({"id": 4, "year": 2014, "c0": True}, tid=8)
        merge_and_compare(table, 8, False, range(5))
        values = table.partition("main").column("c0").dictionary.values()
        assert [(v, type(v)) for v in values] == [(0.0, float), (True, bool)]


def one_column_table(sql_type: SqlType) -> Table:
    schema = Schema(
        [ColumnDef("id", SqlType.INT, nullable=False), ColumnDef("v", sql_type)],
        primary_key="id",
    )
    return Table("t", schema)


def test_int64_extremes_keep_the_int64_path():
    table = one_column_table(SqlType.INT)
    low, high = -(1 << 63), (1 << 63) - 1
    for key, value in enumerate([high, 0, low]):
        table.insert({"id": key, "v": value}, tid=1)
    merge_and_compare(table, 1, False, range(3))
    table.insert({"id": 3, "v": high - 1}, tid=2)
    table.insert({"id": 4, "v": low}, tid=2)
    table.delete(1, tid=3)
    merge_and_compare(table, 3, False, range(5))
    ints = table.partition("main").column("v").dictionary.int_values()
    assert ints.dtype == np.int64 and ints.tolist() == [low, high - 1, high]


def test_an_int_beyond_int64_takes_the_object_path():
    """The main has an ``int64`` array, the delta a Python int past int64:
    the column merges from the decode tables, as Python ints."""
    table = one_column_table(SqlType.INT)
    for key, value in enumerate([5, -7, 1 << 62]):
        table.insert({"id": key, "v": value}, tid=1)
    merge_and_compare(table, 1, False, range(3))
    assert table.partition("main").column("v").dictionary.int_values() is not None
    table.insert({"id": 3, "v": 1 << 64}, tid=2)
    table.insert({"id": 4, "v": -(1 << 63) - 1}, tid=2)
    table.insert({"id": 5, "v": 5}, tid=2)
    assert table.partition("delta").column("v").dictionary.int_values() is None
    merge_and_compare(table, 2, False, range(6))
    dictionary = table.partition("main").column("v").dictionary
    assert dictionary.values() == [-(1 << 63) - 1, -7, 5, 1 << 62, 1 << 64]
    assert {type(v) for v in dictionary.values()} == {int}
    assert dictionary.int_values() is None
    # Once the big values are gone, the column is int64 again.
    table.delete(3, tid=3)
    table.delete(4, tid=4)
    merge_and_compare(table, 4, False, range(6))
    assert table.partition("main").column("v").dictionary.int_values().tolist() == [
        -7, 5, 1 << 62
    ]


def test_nan_and_signed_zero_match_the_oracle():
    """``0.0 == -0.0``: the earliest source's zero represents both.  NaN
    equals nothing, so it sorts after every other value, once."""
    table = one_column_table(SqlType.FLOAT)
    for key, value in enumerate([2.5, NAN, 0.0, None]):
        table.insert({"id": key, "v": value}, tid=1)
    merge_and_compare(table, 1, False, range(4))
    for key, value in enumerate([-0.0, NAN, 1.0, -0.0], start=4):
        table.insert({"id": key, "v": value}, tid=2)
    merge_and_compare(table, 2, False, range(8))
    values = table.partition("main").column("v").dictionary.values()
    assert values[:3] == [0.0, 1.0, 2.5] and values[3] is NAN
    assert math.copysign(1.0, values[0]) == 1.0  # the main's 0.0
    # The merge coded every zero row as the main's 0.0; once no surviving
    # main row refers to it, a delta's -0.0 takes over.
    for key in (2, 4, 7):
        table.delete(key, tid=3)
    table.insert({"id": 8, "v": -0.0}, tid=4)
    merge_and_compare(table, 4, False, range(9))
    values = table.partition("main").column("v").dictionary.values()
    assert math.copysign(1.0, values[0]) == -1.0 and values[-1] is NAN


# ----------------------------------------------------------------------
# the guards: no per-row call, no per-value lookup
# ----------------------------------------------------------------------
def test_merge_makes_no_per_row_call(monkeypatch):
    schema = Schema(
        [
            ColumnDef("id", SqlType.INT, nullable=False),
            ColumnDef("status", SqlType.TEXT),
            ColumnDef("amount", SqlType.FLOAT),
        ],
        primary_key="id",
    )
    table = Table("t", schema)
    for key in range(1000):
        table.insert(
            {"id": key, "status": ("open", "paid", None)[key % 3], "amount": key * 0.25},
            tid=1,
        )
    merge_table(table, snapshot=1)
    for key in range(1000, 1200):
        table.insert({"id": key, "status": "late", "amount": 1.0}, tid=2)
    for key in range(0, 300, 3):
        table.update(key, {"status": "void"}, tid=3)
    for key in range(1, 300, 3):
        table.delete(key, tid=4)

    def per_row_call(*args, **kwargs):
        raise AssertionError("per-row call during the merge")

    monkeypatch.setattr(Partition, "get_row", per_row_call)
    monkeypatch.setattr(ColumnFragment, "value_at", per_row_call)
    monkeypatch.setattr(IntVector, "__getitem__", per_row_call)
    monkeypatch.setattr(MainDictionary, "lookup", per_row_call)
    monkeypatch.setattr(MainDictionary, "decode", per_row_call)
    stats = merge_table(table, snapshot=4)
    monkeypatch.undo()

    assert (stats.rows_moved, stats.rows_dropped) == (300, 200)
    assert table.partition("main").row_count == 1200 - 100
    assert table.partition("delta").row_count == 0
    assert_pk_lookups(table, range(1200))
    assert table.get_row(0)["status"] == "void"
    assert table.get_row(1) is None


def test_merge_looks_no_value_up(monkeypatch):
    """An INT column of 10k distinct values merges without one dictionary
    lookup, and no column builds a value -> code map — the key column
    included: the primary-key index searches its sorted int64 array."""
    schema = Schema(
        [
            ColumnDef("id", SqlType.INT, nullable=False),
            ColumnDef("v", SqlType.INT),
            ColumnDef("s", SqlType.TEXT),
        ],
        primary_key="id",
    )
    table = Table("t", schema)
    rows = [{"id": key, "v": 7 * key - 35_000, "s": str(key % 50)} for key in range(10_000)]
    table.append_rows(table.check_rows(rows), tid=1)
    merge_table(table, snapshot=1)
    rows = [{"id": key, "v": -key, "s": "new"} for key in range(10_000, 10_500)]
    table.append_rows(table.check_rows(rows), tid=2)
    for key in range(0, 600, 3):
        table.update(key, {"v": key}, tid=3)
    for key in range(1, 600, 3):
        table.delete(key, tid=4)

    def per_value_call(*args, **kwargs):
        raise AssertionError("per-value lookup during the merge")

    want_main, _moved, _dropped = build_group_by_rows(table, table.group("default"), 4, False)
    built = []
    code_map = MainDictionary.code_map

    def spy(self):
        built.append(self)
        return code_map(self)

    monkeypatch.setattr(MainDictionary, "lookup_many", per_value_call)
    monkeypatch.setattr(DeltaDictionary, "lookup_many", per_value_call)
    monkeypatch.setattr(MainDictionary, "code_map", spy)
    merge_table(table, snapshot=4)
    monkeypatch.undo()

    main = table.partition("main")
    assert built == []
    assert type(main.column("v").dictionary._int_values) is np.ndarray  # from the sort
    assert_same_partition(main, want_main)
    assert_pk_lookups(table, range(10_500))
