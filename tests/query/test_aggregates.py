"""Unit tests for aggregate specs and grouped accumulation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import CacheError, QueryError
from repro.query import AggFunc, AggregateSpec, Col, GroupedAggregates


def arr(values):
    out = np.empty(len(values), dtype=object)
    out[:] = values
    return out


def specs(*pairs):
    return [
        AggregateSpec(func, Col("v", "t") if has_arg else None, f"out{i}")
        for i, (func, has_arg) in enumerate(pairs)
    ]


class TestAggregateSpec:
    def test_count_star(self):
        spec = AggregateSpec(AggFunc.COUNT, None, "n")
        assert spec.is_count_star
        assert spec.canonical() == "COUNT(*)"

    def test_non_count_requires_arg(self):
        with pytest.raises(QueryError):
            AggregateSpec(AggFunc.SUM, None, "s")

    def test_self_maintainability(self):
        assert AggFunc.SUM.self_maintainable
        assert AggFunc.COUNT.self_maintainable
        assert AggFunc.AVG.self_maintainable
        assert not AggFunc.MIN.self_maintainable
        assert not AggFunc.MAX.self_maintainable

    def test_canonical(self):
        spec = AggregateSpec(AggFunc.SUM, Col("price", "i"), "profit")
        assert spec.canonical() == "SUM(i.price)"


class TestAccumulate:
    def test_sum_count_avg(self):
        grouped = GroupedAggregates(
            specs((AggFunc.SUM, True), (AggFunc.COUNT, False), (AggFunc.AVG, True))
        )
        keys = [("a",), ("a",), ("b",)]
        values = arr([1.0, 3.0, 10.0])
        grouped.accumulate(keys, [values, arr([None] * 3), values])
        rows = dict((row[0], row[1:]) for row in grouped.finalize())
        assert rows["a"] == (4.0, 2, 2.0)
        assert rows["b"] == (10.0, 1, 10.0)

    def test_nulls_skipped_by_sum_avg_count_col(self):
        grouped = GroupedAggregates(
            specs((AggFunc.SUM, True), (AggFunc.COUNT, True), (AggFunc.AVG, True))
        )
        values = arr([None, 2.0, None])
        grouped.accumulate([("g",)] * 3, [values, values, values])
        row = grouped.finalize()[0]
        assert row[0] == "g"
        assert row[1] == 2.0
        assert row[2] == 1
        assert row[3] == 2.0
        assert grouped.total_rows_aggregated() == 3  # COUNT(*) of the one group

    def test_sum_all_null_is_null(self):
        grouped = GroupedAggregates(specs((AggFunc.SUM, True)))
        grouped.accumulate([("g",)], [arr([None])])
        assert grouped.finalize()[0][1] is None

    def test_min_max(self):
        grouped = GroupedAggregates(specs((AggFunc.MIN, True), (AggFunc.MAX, True)))
        values = arr([5, None, 2, 9])
        grouped.accumulate([("g",)] * 4, [values, values])
        assert grouped.finalize()[0][1:] == (2, 9)

    def test_empty_group_key(self):
        grouped = GroupedAggregates(specs((AggFunc.COUNT, False)))
        grouped.accumulate([(), ()], [arr([None, None])])
        assert grouped.finalize() == [(2,)]

    def test_invalid_sign(self):
        grouped = GroupedAggregates(specs((AggFunc.COUNT, False)))
        grouped.accumulate([()], [arr([None])])
        with pytest.raises(ValueError):
            grouped.accumulate([()], [arr([None])], sign=2)
        with pytest.raises(ValueError):  # merge no longer scales by any int
            grouped.merge(grouped.copy(), sign=2)
        assert grouped.finalize() == [(1,)]


class TestSubtraction:
    def test_subtract_retires_empty_groups(self):
        grouped = GroupedAggregates(specs((AggFunc.SUM, True)))
        grouped.accumulate([("a",), ("b",)], [arr([1.0, 2.0])])
        grouped.accumulate([("a",)], [arr([1.0])], sign=-1)
        assert grouped.group_count() == 1
        assert grouped.finalize() == [("b", 2.0)]

    def test_subtract_partial(self):
        grouped = GroupedAggregates(specs((AggFunc.SUM, True), (AggFunc.AVG, True)))
        values = arr([10.0, 20.0])
        grouped.accumulate([("g",)] * 2, [values, values])
        grouped.accumulate([("g",)], [arr([10.0]), arr([10.0])], sign=-1)
        assert grouped.finalize()[0][1:] == (20.0, 20.0)

    def test_subtract_min_rejected(self):
        grouped = GroupedAggregates(specs((AggFunc.MIN, True)))
        grouped.accumulate([("g",)], [arr([1])])
        with pytest.raises(CacheError):
            grouped.accumulate([("g",)], [arr([1])], sign=-1)


class TestMerge:
    def test_merge_adds(self):
        a = GroupedAggregates(specs((AggFunc.SUM, True), (AggFunc.COUNT, False)))
        b = GroupedAggregates(specs((AggFunc.SUM, True), (AggFunc.COUNT, False)))
        a.accumulate([("x",)], [arr([1.0]), arr([None])])
        b.accumulate([("x",), ("y",)], [arr([2.0, 5.0]), arr([None, None])])
        a.merge(b)
        rows = dict((row[0], row[1:]) for row in a.finalize())
        assert rows["x"] == (3.0, 2)
        assert rows["y"] == (5.0, 1)

    def test_merge_subtract_retires(self):
        a = GroupedAggregates(specs((AggFunc.COUNT, False)))
        b = GroupedAggregates(specs((AggFunc.COUNT, False)))
        a.accumulate([("x",)], [arr([None])])
        b.accumulate([("x",)], [arr([None])])
        a.merge(b, sign=-1)
        assert a.group_count() == 0

    def test_merge_min_max(self):
        a = GroupedAggregates(specs((AggFunc.MIN, True), (AggFunc.MAX, True)))
        b = GroupedAggregates(specs((AggFunc.MIN, True), (AggFunc.MAX, True)))
        a.accumulate([("g",)], [arr([5]), arr([5])])
        b.accumulate([("g",)], [arr([3]), arr([3])])
        a.merge(b)
        assert a.finalize()[0][1:] == (3, 5)

    def test_merge_spec_mismatch(self):
        a = GroupedAggregates(specs((AggFunc.SUM, True)))
        b = GroupedAggregates(specs((AggFunc.COUNT, False)))
        with pytest.raises(CacheError):
            a.merge(b)

    def test_copy_independent(self):
        a = GroupedAggregates(specs((AggFunc.SUM, True)))
        a.accumulate([("g",)], [arr([1.0])])
        c = a.copy()
        c.accumulate([("g",)], [arr([1.0])])
        assert a.finalize()[0][1] == 1.0
        assert c.finalize()[0][1] == 2.0


class TestMetricsHelpers:
    def test_total_rows_and_size(self):
        grouped = GroupedAggregates(specs((AggFunc.COUNT, False)))
        grouped.accumulate([("a",), ("a",), ("b",)], [arr([None] * 3)])
        assert grouped.total_rows_aggregated() == 3
        assert grouped.approximate_nbytes() > 0
        assert set(grouped.keys()) == {("a",), ("b",)}


@given(
    st.lists(
        st.tuples(st.sampled_from(["a", "b", "c"]), st.floats(-100, 100)),
        max_size=60,
    )
)
def test_property_add_then_subtract_is_identity(rows):
    """Adding a batch then subtracting it restores the previous state."""
    base = GroupedAggregates(
        specs((AggFunc.SUM, True), (AggFunc.COUNT, False), (AggFunc.AVG, True))
    )
    base.accumulate([("a",)], [arr([1.0]), arr([None]), arr([1.0])])
    snapshot = sorted(base.copy().finalize())
    keys = [(g,) for g, _ in rows]
    values = arr([v for _, v in rows])
    base.accumulate(keys, [values, arr([None] * len(rows)), values])
    base.accumulate(keys, [values, arr([None] * len(rows)), values], sign=-1)
    result = sorted(base.finalize())
    assert [r[0] for r in result] == [r[0] for r in snapshot]
    for got, want in zip(result, snapshot):
        assert got[2] == want[2]  # counts exact
        assert got[1] == pytest.approx(want[1])
        assert got[3] == pytest.approx(want[3])
