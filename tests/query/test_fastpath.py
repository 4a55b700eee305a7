"""Tests for code-space filter evaluation (the compressed-scan fast path)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.query import Arith, Cmp, Col, Lit
from repro.query.fastpath import fast_filter_mask
from repro.query.operators import PartitionProvider, scan_partition
from repro.storage import ColumnDef, Partition, Schema, SqlType


def make_delta(values):
    schema = Schema([ColumnDef("x", SqlType.INT), ColumnDef("y", SqlType.TEXT)])
    part = Partition("delta", "delta", schema)
    rows = [{"x": v, "y": str(i)} for i, v in enumerate(values)]
    part.append(schema.validate_columns(rows), [1] * len(rows))
    return part

def make_main(values):
    schema = Schema([ColumnDef("x", SqlType.INT), ColumnDef("y", SqlType.TEXT)])
    rows = [{"x": v, "y": str(i)} for i, v in enumerate(values)]
    columns = schema.validate_columns(rows)
    stamps = [1] * len(rows), [0] * len(rows)
    return Partition.build_main("main", schema, columns, *stamps)


VALUES = [5, None, 3, 5, 9, 1, None, 7]


class TestShapes:
    def test_applicable_shapes(self):
        part = make_delta(VALUES)
        assert fast_filter_mask(Cmp("=", Col("x"), Lit(5)), part) is not None
        assert fast_filter_mask(Cmp("<", Lit(5), Col("x")), part) is not None

    def test_inapplicable_shapes(self):
        part = make_delta(VALUES)
        assert fast_filter_mask(Cmp("=", Col("x"), Col("y")), part) is None
        assert fast_filter_mask(Cmp("=", Arith("+", Col("x"), Lit(1)), Lit(5)), part) is None
        assert fast_filter_mask(Lit(True), part) is None
        assert fast_filter_mask(Cmp("=", Col("x"), Lit(None)), part) is None

    def test_alias_mismatch_rejected(self):
        part = make_delta(VALUES)
        expr = Cmp("=", Col("x", "other"), Lit(5))
        assert fast_filter_mask(expr, part, alias="mine") is None
        assert fast_filter_mask(expr, part, alias="other") is not None

    def test_unknown_column(self):
        part = make_delta(VALUES)
        assert fast_filter_mask(Cmp("=", Col("zzz"), Lit(5)), part) is None

    def test_incomparable_literal_falls_back(self):
        part = make_delta(VALUES)
        assert fast_filter_mask(Cmp("<", Col("x"), Lit("abc")), part) is None


@pytest.mark.parametrize("factory", [make_delta, make_main], ids=["delta", "main"])
class TestSemantics:
    @pytest.mark.parametrize("op", ["=", "!=", "<", "<=", ">", ">="])
    def test_matches_generic_evaluation(self, factory, op):
        part = factory(VALUES)
        expr = Cmp(op, Col("x"), Lit(5))
        fast = fast_filter_mask(expr, part)
        rows = np.arange(part.row_count)
        generic = expr.evaluate(PartitionProvider(None, part, rows)).astype(bool)
        assert fast.tolist() == generic.tolist()

    def test_absent_equality_all_false(self, factory):
        part = factory(VALUES)
        assert not fast_filter_mask(Cmp("=", Col("x"), Lit(12345)), part).any()

    def test_absent_inequality_matches_nonnull(self, factory):
        part = factory(VALUES)
        mask = fast_filter_mask(Cmp("!=", Col("x"), Lit(12345)), part)
        expected = [v is not None for v in VALUES]
        assert mask.tolist() == expected

    def test_empty_partition(self, factory):
        part = factory([])
        assert fast_filter_mask(Cmp("<", Col("x"), Lit(3)), part).tolist() == []


class TestScanIntegration:
    def test_scan_uses_fast_and_slow_filters_together(self):
        part = make_delta(VALUES)
        fast_expr = Cmp(">", Col("x"), Lit(2))
        slow_expr = Cmp("!=", Arith("+", Col("x"), Lit(0)), Lit(9))
        rows = scan_partition(None, part, snapshot=1, filters=[fast_expr, slow_expr])
        kept = [VALUES[i] for i in rows]
        assert kept == [5, 3, 5, 7]

    def test_scan_respects_visibility(self):
        part = make_delta(VALUES)
        part.invalidate(0, 2)
        rows = scan_partition(None, part, snapshot=2, filters=[Cmp("=", Col("x"), Lit(5))])
        assert rows.tolist() == [3]


@given(
    st.lists(st.one_of(st.none(), st.integers(-20, 20)), max_size=60),
    st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
    st.integers(-20, 20),
)
def test_property_fast_equals_generic(values, op, literal):
    for factory in (make_delta, make_main):
        part = factory(values)
        expr = Cmp(op, Col("x"), Lit(literal))
        fast = fast_filter_mask(expr, part)
        rows = np.arange(part.row_count)
        generic = expr.evaluate(PartitionProvider(None, part, rows)).astype(bool)
        assert fast.tolist() == generic.tolist()


@given(
    st.lists(
        st.one_of(
            st.none(),
            st.integers(-20, 20),
            st.sampled_from([(1 << 53) + 1, 1 << 63, -(1 << 64)]),
        ),
        max_size=60,
    ),
    st.sampled_from(["<", "<=", ">", ">="]),
    st.one_of(
        st.integers(-20, 20),
        st.sampled_from([1 << 63, -(1 << 64), 2.5, -0.5, float(1 << 53)]),
    ),
    st.data(),
)
def test_property_delta_range_on_pinned_rows_equals_generic(values, op, literal, data):
    """Integer delta dictionaries compare in int64 — over all rows or a
    pinned subset, whichever of the two table layouts the sizes pick —
    exactly as decoded values do; wide ints and float literals fall back
    (an int64 past 2**53 against a float literal is where a float64
    compare would differ from Python's)."""
    part = make_delta(values)
    expr = Cmp(op, Col("x"), Lit(literal))
    rows = np.array(
        sorted(data.draw(st.sets(st.integers(0, max(part.row_count - 1, 0)), max_size=part.row_count)))
        if part.row_count else [],
        dtype=np.int64,
    )
    for pinned in (None, rows):
        fast = fast_filter_mask(expr, part, rows=pinned)
        at = np.arange(part.row_count) if pinned is None else pinned
        generic = expr.evaluate(PartitionProvider(None, part, at)).astype(bool)
        assert fast.tolist() == generic.tolist()


@pytest.mark.parametrize("op", ["<", "<=", ">", ">="])
def test_delta_int_past_2_53_against_a_float_literal(op):
    """A float64 compare would round 2**53 + 1 down to the literal."""
    part = make_delta([(1 << 53) + 1, 3, None])
    expr = Cmp(op, Col("x"), Lit(float(1 << 53)))
    generic = expr.evaluate(PartitionProvider(None, part, np.arange(3))).astype(bool)
    assert fast_filter_mask(expr, part).tolist() == generic.tolist()
