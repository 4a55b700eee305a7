"""Direct tests for grouped-state internals the executor exercises only
indirectly: pre-aggregated group folding, bulk state access, and result
rendering edges."""

import math
import warnings

import numpy as np
import pytest

from repro.errors import CacheError, QueryError
from repro.query import AggFunc, AggregateSpec, Col, GroupedAggregates, OrderItem
from repro.query.query import AggregateQuery, TableRef
from repro.query.result import QueryResult


def specs():
    return [
        AggregateSpec(AggFunc.SUM, Col("v", "t"), "s"),
        AggregateSpec(AggFunc.COUNT, None, "n"),
    ]


def ints(*values):
    return np.array(values, dtype=np.int64)


class TestAccumulateGroups:
    """``fold``: pre-aggregated per-group contributions, as the vectorized
    aggregation hands them over — one array per state component."""

    def test_fold_preaggregated_contributions(self):
        grouped = GroupedAggregates(specs())
        grouped.fold(
            keys=[("a",), ("b",)],
            # COUNT(*), then SUM's sum and non-null count
            components=[ints(2, 1), np.array([10.0, 5.0]), ints(2, 1)],
        )
        assert grouped.finalize() == [("a", 10.0, 2), ("b", 5.0, 1)]
        assert grouped.total_rows_aggregated() == 3

    def test_subtract_retires_groups(self):
        grouped = GroupedAggregates(specs())
        grouped.fold([("a",)], [ints(2), np.array([10.0]), ints(2)])
        grouped.fold([("a",)], [ints(2), np.array([10.0]), ints(2)], sign=-1)
        assert grouped.group_count() == 0

    def test_subtract_requires_self_maintainable(self):
        bad = GroupedAggregates([AggregateSpec(AggFunc.MIN, Col("v", "t"), "m")])
        with pytest.raises(CacheError):
            bad.fold([("a",)], [ints(1), np.array([1], dtype=object)], sign=-1)
        assert bad.group_count() == 0

    def test_raw_states_are_copies(self):
        """``state_columns`` reads the states in bulk, as copies."""
        grouped = GroupedAggregates(specs())
        grouped.fold([("a",)], [ints(2), np.array([10.0]), ints(2)])
        keys, stars, states = grouped.state_columns()
        assert keys == [("a",)] and stars.tolist() == [2]
        assert [a.tolist() for a in states[0]] == [[10.0], [2]]
        assert states[1][0] is stars  # COUNT(*) is the COUNT(*) array
        states[0][0][0] = 999.0
        assert grouped.finalize()[0][1] == 10.0


class TestMergeEdgeCases:
    """The merge paths the executor leans on: partial folding."""

    def test_avg_partials_combine_exactly(self):
        # AVG carries (sum, non-null count) partials; merging two partials
        # must equal aggregating all rows at once, including NULL handling.
        avg_specs = [AggregateSpec(AggFunc.AVG, Col("v", "t"), "a")]
        left = GroupedAggregates(avg_specs)
        left.accumulate([("g",), ("g",)], [np.array([2.0, None], dtype=object)])
        right = left.new_like()
        right.accumulate([("g",), ("g",)], [np.array([4.0, 6.0], dtype=object)])
        left.merge(right)
        # sum 12.0 over 3 non-null values; the NULL row counts for COUNT(*)
        # but not for the average.
        assert left.finalize() == [("g", 4.0)]
        assert left.total_rows_aggregated() == 4

    def test_distinct_count_union(self):
        distinct = [AggregateSpec(AggFunc.COUNT, Col("v", "t"), "d", distinct=True)]
        left = GroupedAggregates(distinct)
        left.accumulate([("g",)] * 3, [np.array([1, 2, 2], dtype=object)])
        right = left.new_like()
        right.accumulate([("g",)] * 3, [np.array([2, 3, None], dtype=object)])
        left.merge(right)
        # {1, 2} ∪ {2, 3} = {1, 2, 3}; NULL never enters the set.
        assert left.finalize() == [("g", 3)]

    def test_min_max_merge_takes_extrema(self):
        mm = [
            AggregateSpec(AggFunc.MIN, Col("v", "t"), "lo"),
            AggregateSpec(AggFunc.MAX, Col("v", "t"), "hi"),
        ]
        left = GroupedAggregates(mm)
        left.accumulate([("g",)], [np.array([5], dtype=object)] * 2)
        right = left.new_like()
        right.accumulate([("g",), ("g",)], [np.array([1, 9], dtype=object)] * 2)
        left.merge(right)
        assert left.finalize() == [("g", 1, 9)]

    def test_sign_minus_one_rejected_for_non_self_maintainable(self):
        for spec in (
            AggregateSpec(AggFunc.MIN, Col("v", "t"), "m"),
            AggregateSpec(AggFunc.MAX, Col("v", "t"), "m"),
            AggregateSpec(AggFunc.COUNT, Col("v", "t"), "m", distinct=True),
        ):
            target = GroupedAggregates([spec])
            other = target.new_like()
            other.accumulate([("g",)], [np.array([1], dtype=object)])
            with pytest.raises(CacheError):
                target.merge(other, sign=-1)

    def test_merge_rejects_mismatched_specs(self):
        left = GroupedAggregates(specs())
        right = GroupedAggregates([AggregateSpec(AggFunc.COUNT, None, "n")])
        with pytest.raises(CacheError):
            left.merge(right)

    def test_cancelling_merges_retire_empty_groups(self):
        # A compensation sequence that nets a group to zero must retire it;
        # a group merely *passing through* a negative count must survive so
        # a later positive contribution can cancel back.
        grouped = GroupedAggregates(specs())
        positive = grouped.new_like()
        positive.accumulate(
            [("a",), ("a",), ("b",)],
            [np.array([1.0, 2.0, 9.0], dtype=object), np.array([0, 0, 0])],
        )
        negative = grouped.new_like()
        negative.accumulate(
            [("a",), ("a",)],
            [np.array([1.0, 2.0], dtype=object), np.array([0, 0])],
            sign=-1,
        )
        grouped.merge(negative)  # "a" now at count -2: retained, not retired
        assert grouped.total_rows_aggregated() == -2
        assert grouped.group_count() == 1
        grouped.merge(positive)  # "a" cancels to 0 and retires; "b" stays
        assert grouped.group_count() == 1
        assert grouped.finalize() == [("b", 9.0, 1)]

    def test_merge_into_empty_adopts_independent_copies(self):
        """The first fold into a fresh aggregate takes ``other``'s groups
        over — same states, same key order as the per-key loop gives —
        without sharing a single mutable object with it."""
        mixed = specs() + [
            AggregateSpec(AggFunc.COUNT, Col("v", "t"), "d", distinct=True),
            AggregateSpec(AggFunc.AVG, Col("v", "t"), "a"),
            AggregateSpec(AggFunc.MAX, Col("v", "t"), "hi"),
        ]
        other = GroupedAggregates(mixed)
        values = np.array([3.0, 1.0, None, 2.0], dtype=object)
        other.accumulate([("z",), ("a",), ("m",), ("a",)], [values] * 5)
        adopted = other.new_like()
        adopted.merge(other)
        # Reference: the per-key loop, reached by seeding a group first.
        looped = other.new_like()
        looped.accumulate([("seed",)], [np.array([0.0], dtype=object)] * 5)
        looped.merge(other)
        assert list(adopted.keys()) == list(other.keys()) == [("z",), ("a",), ("m",)]
        assert adopted.finalize() == other.finalize()
        assert adopted.finalize() == [r for r in looped.finalize() if r[0] != "seed"]
        assert adopted.total_rows_aggregated() == other.total_rows_aggregated()
        _, mine, my_states = adopted.state_columns()
        _, theirs, their_states = other.state_columns()
        assert mine.tolist() == theirs.tolist()
        for a, b in zip(my_states, their_states):
            assert [x.tolist() for x in a] == [y.tolist() for y in b]
        # The COUNT DISTINCT sets are copies, not the same objects.
        assert all(s is not t for s, t in zip(my_states[2][0], their_states[2][0]))
        adopted.accumulate([("a",)], [np.array([9.0], dtype=object)] * 5)
        assert other.finalize()[1] == ("a", 3.0, 2, 2, 1.5, 2.0)
        # Canonically equal specs built separately adopt just the same, and
        # copy() does not share COUNT DISTINCT sets either.
        separate = GroupedAggregates(list(mixed))
        separate.merge(other)
        assert separate.finalize() == other.finalize()
        copied = other.copy()
        copied.accumulate([("a",)], [np.array([7.0], dtype=object)] * 5)
        assert other.finalize()[1] == ("a", 3.0, 2, 2, 1.5, 2.0)

    def test_float_overflow_merges_like_the_row_loop(self):
        """A float sum past float64 is inf, and inf − inf is nan, in the
        vector add of ``merge`` exactly as in ``accumulate``'s Python adds —
        silently, even with warnings raised as errors."""

        def one_row(value):
            state = GroupedAggregates(specs())
            state.accumulate([("g",)], [np.array([value], dtype=object), ints(0)])
            return state

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            looped = GroupedAggregates(specs())
            looped.accumulate([("g",)] * 2, [np.array([1.7e308] * 2, dtype=object), ints(0, 0)])
            merged = one_row(1.7e308)
            merged.merge(one_row(1.7e308))
            assert looped.finalize() == merged.finalize() == [("g", math.inf, 2)]
            looped.accumulate([("g",)], [np.array([math.inf], dtype=object), ints(0)], sign=-1)
            merged.merge(one_row(math.inf), sign=-1)
            for state in (looped, merged):
                ((_, total, count),) = state.finalize()
                assert math.isnan(total) and count == 1

    def test_merge_into_empty_with_sign_minus_one_still_negates(self):
        other = GroupedAggregates(specs())
        other.accumulate([("g",)], [np.array([2.0], dtype=object), np.array([0])])
        target = other.new_like()
        target.merge(other, sign=-1)
        assert target.total_rows_aggregated() == -1
        _, stars, states = target.state_columns()
        assert [a.tolist() for a in states[0]] == [[-2.0], [-1]]
        assert stars.tolist() == [-1]

    def test_finalize_keys_renders_only_the_given_groups_in_order(self):
        """``finalize_slots`` over slots the key table resolved."""
        grouped = GroupedAggregates(
            specs() + [AggregateSpec(AggFunc.AVG, Col("v", "t"), "a")]
        )
        values = np.array([1.0, 2.0, None, 4.0], dtype=object)
        grouped.accumulate([("a",), ("b",), ("c",), ("b",)], [values] * 3)
        rows = {row[0]: row for row in grouped.finalize()}
        assert rows["c"] == ("c", None, 1, None)  # SUM/AVG of no value: NULL
        slots = grouped.slots_of([("c",), ("a",)])
        assert slots.dtype == np.intp
        assert grouped.finalize_slots(slots) == [rows["c"], rows["a"]]
        assert grouped.finalize_slots(grouped.slots_of([])) == []
        assert grouped.finalize_slots(grouped.slots_of(grouped.keys())) == grouped.finalize()
        with pytest.raises(KeyError):
            grouped.slots_of([("missing",)])

    def test_new_like_shares_specs_identity(self):
        grouped = GroupedAggregates(specs())
        fresh = grouped.new_like()
        assert fresh.specs is grouped.specs
        assert fresh.group_count() == 0
        copied = grouped.copy()
        assert copied.specs is grouped.specs


class TestResultRendering:
    def query(self):
        return AggregateQuery(
            tables=[TableRef("t", "t")],
            aggregates=specs(),
            group_by=[Col("g", "t")],
        )

    def test_to_text_truncation_note(self):
        result = QueryResult(["g", "s", "n"], [(i, 1.0, 1) for i in range(30)])
        text = result.to_text(max_rows=5)
        assert "(25 more rows)" in text
        assert result.to_text(max_rows=None).count("\n") >= 31

    def test_null_rendering(self):
        result = QueryResult(["g", "s", "n"], [(None, None, 0)])
        assert "NULL" in result.to_text()

    def test_width_mismatch_rejected(self):
        with pytest.raises(QueryError):
            QueryResult(["a", "b"], [(1,)])

    def test_sort_with_nulls_first(self):
        result = QueryResult(["g", "s", "n"], [(2, 1.0, 1), (None, 2.0, 1), (1, 3.0, 1)])
        ordered = result.sorted_by([OrderItem("g")])
        assert ordered.column_values("g") == [None, 1, 2]

    def test_sort_mixed_types_stable(self):
        result = QueryResult(["g", "s", "n"], [("b", 1.0, 1), (1, 2.0, 1), ("a", 3.0, 1)])
        ordered = result.sorted_by([OrderItem("g")])
        # ints group before strings (type-name order), each group sorted.
        assert ordered.column_values("g") == [1, "a", "b"]

    def test_sort_groups_every_real_number_together(self):
        rows = [(np.float64(2.5),), (1,), (True,), (np.int64(2),), (0.5,), (None,)]
        ordered = QueryResult(["x"], rows).sorted_by([OrderItem("x")])
        # NULL first, then bool (its own type group), then the numbers by
        # value whatever their machine type.
        assert ordered.column_values("x") == [None, True, 0.5, 1, 2, 2.5]

    def test_trusted_takes_rows_over_unchecked(self):
        rows = [(1, 2.0)]
        result = QueryResult.trusted(["a", "b"], rows)
        assert result.rows is rows and result.columns == ["a", "b"]
        assert result.report is None and result.trace is None
        assert result == QueryResult(["a", "b"], [(1, 2.0)])

    def test_equality_cross_type_and_length(self):
        a = QueryResult(["x"], [(1,)])
        assert a != QueryResult(["y"], [(1,)])
        assert a != QueryResult(["x"], [(1,), (2,)])
        assert (a == object()) is NotImplemented or (a != object())

    def test_float_tolerance_in_equality(self):
        a = QueryResult(["x"], [(1.0000000000001,)])
        b = QueryResult(["x"], [(1.0,)])
        assert a == b
        c = QueryResult(["x"], [(1.1,)])
        assert a != c
