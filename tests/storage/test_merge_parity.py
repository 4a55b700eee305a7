"""The code-space merge against the row-at-a-time oracle.

``merge_oracle.py`` holds the merge as it used to run: one Python dict per
surviving row.  Every merge of every random history below is run both ways
and must agree on everything observable — dictionary values *and their
types* (``1`` / ``1.0`` / ``True`` collide under ``==``), code vectors,
stamps, byte accounting, ``MergeStats`` and the primary-key index.

The guard test pins the reason the merge was rewritten: on a table of any
size it makes no per-row call into the storage classes.
"""

import tempfile
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.storage import (
    ColumnDef,
    ColumnFragment,
    IntVector,
    MainDictionary,
    Partition,
    Schema,
    SqlType,
    Table,
    demote_partition,
    merge_table,
    threshold_aging,
)

from .merge_oracle import build_group_by_rows, pk_index_by_rows

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


def merge_and_compare(table: Table, snapshot: int, keep_history: bool, group_name=None):
    """One ``merge_table`` call checked against the oracle's staging."""
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
            if group.main.storage_tier == "mapped":
                continue  # stays demoted; a rebuild would be resident
        assert_same_partition(group.main, want_main)
    assert stats.groups_merged == len(groups) - len(idle)
    assert (table.version == version) == (len(idle) == len(groups))
    assert stats.rows_moved == sum(moved for _main, moved, _dropped in expected)
    assert stats.rows_dropped == sum(dropped for _main, _moved, dropped in expected)
    want_index = pk_index_by_rows(table)
    assert table._pk_index == want_index
    # == on a dict ignores which of two equal keys (1 / 1.0) it holds.
    assert [type(k) for k in table._pk_index] == [type(k) for k in want_index]
    return stats


# ----------------------------------------------------------------------
# random histories
# ----------------------------------------------------------------------
#: Value domains are small on purpose: duplicates, shared values between
#: main and delta, and values whose last reference gets invalidated.
COLUMN_KINDS = {
    "int": (SqlType.INT, st.one_of(st.none(), st.integers(-3, 12))),
    # Under ``untyped_columns`` a column keeps what it is given, so equal
    # values of different type meet in one dictionary.
    "float": (
        SqlType.FLOAT,
        st.sampled_from([None, 0, 0.0, False, 1, 1.0, True, 2.5]),
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
        st.tuples(st.just("merge"), group, st.booleans()),
        st.just(("demote",)),
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


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(histories())
def test_every_merge_of_a_random_history_matches_the_oracle(history):
    table = make_table(history)
    live = []  # keys with a live version, in insertion order
    next_id = 0
    tid = 0
    with tempfile.TemporaryDirectory() as cold_dir, untyped_columns():
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
                table.delete(live.pop(op[1] % len(live)), tid)
            elif op[0] == "merge":
                merge_and_compare(table, tid, keep_history=op[2], group_name=op[1])
            elif op[0] == "demote":
                for main in table.main_partitions():
                    if main.row_count:
                        demote_partition(table.name, main, cold_dir)
        merge_and_compare(
            table,
            tid,
            keep_history=history["final_keep_history"],
            group_name=history["final_group"],
        )
    assert sorted(table._pk_index) == sorted(live)


def test_equal_values_of_different_type_keep_the_earliest_source():
    """``1 == 1.0 == True``: the new dictionary holds one of them, the one
    the first surviving row in (main, delta, update delta) order refers to."""
    history = {"kinds": ["float"], "aged": False, "separate_update_delta": True}
    table = make_table(history)
    with untyped_columns():
        table.insert({"id": 0, "year": 2014, "c0": 1}, tid=1)
        merge_and_compare(table, 1, keep_history=False)
        table.insert({"id": 1, "year": 2014, "c0": 1.0}, tid=2)
        table.insert({"id": 2, "year": 2014, "c0": 0.0}, tid=3)
        table.update(1, {"c0": False}, tid=4)  # lands in the update delta
        table.insert({"id": 3, "year": 2014, "c0": True}, tid=5)
        merge_and_compare(table, 5, keep_history=False)
        # 1 from the main beats True from the delta; 0.0 from the delta
        # beats False from the update delta; 1.0's only row was invalidated.
        values = table.partition("main").column("c0").dictionary.values()
        assert [(v, type(v)) for v in values] == [(0.0, float), (1, int)]
        # Once no surviving main row refers to the main's representative,
        # the delta's takes over.
        table.delete(0, tid=6)
        table.delete(3, tid=7)
        table.insert({"id": 4, "year": 2014, "c0": True}, tid=8)
        merge_and_compare(table, 8, keep_history=False)
        values = table.partition("main").column("c0").dictionary.values()
        assert [(v, type(v)) for v in values] == [(0.0, float), (True, bool)]


def test_a_merge_out_of_a_mapped_main_matches_the_oracle(tmp_path):
    """The deterministic twin of the ``demote`` op above: rows invalidated in
    a cold main (copy-on-write ``dts``) and merged out of the mapped files."""
    table = make_table({"kinds": ["str", "int"], "aged": True, "separate_update_delta": False})
    for key in range(40):
        table.insert(
            {"id": key, "year": 2012 + key % 4, "c0": "ab"[key % 2], "c1": key % 7}, tid=1
        )
    merge_and_compare(table, 1, keep_history=False)
    cold_main = table.partition("cold_main")
    demote_partition(table.name, cold_main, tmp_path)
    assert cold_main.storage_tier == "mapped"
    table.update(0, {"c0": None}, tid=2)  # a cold row: dts promoted, new version in cold delta
    table.delete(4, tid=3)
    table.insert({"id": 99, "year": 2012, "c0": "zz", "c1": None}, tid=4)
    stats = merge_and_compare(table, 4, keep_history=False, group_name="cold")
    assert (stats.rows_moved, stats.rows_dropped) == (2, 2)
    assert table.partition("cold_main").storage_tier == "resident"


# ----------------------------------------------------------------------
# the guard: no per-row call
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
    assert table._pk_index == pk_index_by_rows(table)
    assert table.get_row(0)["status"] == "void"
    assert table.get_row(1) is None
