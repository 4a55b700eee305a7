"""The columnar grouped state against its dict-of-lists reference.

A random signed stream of row folds, vectorized (pre-aggregated) folds,
``merge(±1)``, ``copy`` and ``finalize_slots`` drives
:class:`repro.query.aggregates.GroupedAggregates` and
:class:`~tests.query.reference_aggregates.DictGroupedAggregates` side by side;
after every step both must render the identical rows — same values, same
Python types, same ``float.hex`` — in the same group order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CacheError
from repro.query import AggFunc, AggregateSpec, Col, GroupedAggregates

from .reference_aggregates import DictGroupedAggregates, reference_fold

KEYS = [("a",), ("b",), ("c",), (None,)]


def spec(func, column, name, distinct=False):
    return AggregateSpec(func, None if column is None else Col(column, "t"), name, distinct)


#: Self-maintainable: every op, both signs.  Columns: i = INT, f = FLOAT.
MAINTAINABLE = [
    spec(AggFunc.SUM, "i", "si"),
    spec(AggFunc.SUM, "f", "sf"),
    spec(AggFunc.AVG, "i", "ai"),
    spec(AggFunc.AVG, "f", "af"),
    spec(AggFunc.COUNT, None, "n"),
    spec(AggFunc.COUNT, "i", "ci"),
]
#: Not self-maintainable: row folds and merges with sign +1 only.
#: Column s = TEXT.
GENERAL = [
    spec(AggFunc.SUM, "f", "sf"),
    spec(AggFunc.COUNT, "i", "di", distinct=True),
    spec(AggFunc.MIN, "s", "lo"),
    spec(AggFunc.MAX, "s", "hi"),
    spec(AggFunc.COUNT, None, "n"),
]

# Integers around 2**53 (AVG must divide them exactly) and up to 2**62, so
# a handful of rows carries a sum past 2**63; now and then one past int64.
INTS = st.one_of(
    st.integers(-5, 5),
    st.integers(2**53 - 3, 2**53 + 3),
    st.integers(-(2**62), 2**62),
    st.integers(-(2**65), 2**65),
)
# Quarter-steps cancel exactly (so signed groups retire); arbitrary floats
# make the summation order visible in the last bit.
FLOATS = st.one_of(
    st.integers(-40, 40).map(lambda q: q / 4),
    st.just(-0.0),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
)
VALUES = {
    "i": st.one_of(st.none(), INTS),
    "f": st.one_of(st.none(), FLOATS),
    "s": st.one_of(st.none(), st.text(alphabet="abz", max_size=3)),
}


def rows_for(specs, min_size=0):
    columns = [s.arg.name if s.arg is not None else None for s in specs]
    row = st.tuples(
        st.sampled_from(KEYS),
        st.tuples(*[st.none() if c is None else VALUES[c] for c in columns]),
    )
    return st.lists(row, min_size=min_size, max_size=12)


def columns_of(rows, width):
    return [[values[i] for _, values in rows] for i in range(width)]


def contributions(specs, rows):
    """What the vectorized aggregation hands over: groups in first-appearance
    order, float sums by ``bincount`` (in row order), exact integer sums."""
    index = {}
    group = np.array([index.setdefault(key, len(index)) for key, _ in rows])
    n = len(index)
    components = [np.bincount(group, minlength=n)]  # COUNT(*) first
    for i, s in enumerate(specs):
        if s.is_count_star:
            continue
        values = [v[i] for _, v in rows]
        present = np.array([v is not None for v in values])
        nonnull = np.bincount(group[present], minlength=n)
        if s.func is AggFunc.COUNT:
            components.append(nonnull)
            continue
        if s.arg.name == "f":
            weights = [0.0 if v is None else v for v in values]
            sums = np.bincount(group, weights=weights, minlength=n)
        else:
            exact = [0] * n
            for g, v in zip(group.tolist(), values):
                if v is not None:
                    exact[g] += v
            try:
                sums = np.array(exact, dtype=np.int64)
            except OverflowError:
                sums = np.empty(n, dtype=object)
                sums[:] = exact
        components += (sums, nonnull)
    return list(index), components


def assert_same_rows(got, want):
    assert len(got) == len(want)
    for row_got, row_want in zip(got, want):
        assert len(row_got) == len(row_want)
        for a, b in zip(row_got, row_want):
            assert type(a) is type(b), (row_got, row_want)
            if isinstance(a, float):
                assert a.hex() == b.hex(), (row_got, row_want)
            else:
                assert a == b, (row_got, row_want)


def assert_same_state(new, ref):
    assert list(new.keys()) == list(ref.keys())
    assert new.group_count() == ref.group_count()
    assert new.total_rows_aggregated() == ref.total_rows_aggregated()
    assert_same_rows(new.finalize(), ref.finalize())


class Pair:
    """One columnar state and its reference, driven in lockstep."""

    def __init__(self, specs, signed):
        self.specs = specs
        self.new = GroupedAggregates(specs, signed=signed)
        self.ref = DictGroupedAggregates(specs, signed=signed)

    def accumulate(self, rows, sign):
        keys = [key for key, _ in rows]
        columns = columns_of(rows, len(self.specs))
        self.new.accumulate(keys, columns, sign=sign)
        self.ref.accumulate(keys, columns, sign=sign)

    def fold(self, rows, sign):
        keys, components = contributions(self.specs, rows)
        self.new.fold(keys, components, sign=sign)
        reference_fold(self.ref, keys, components, sign=sign)


def draw_ops(data, specs, depth=0):
    maintainable = specs is MAINTAINABLE
    kinds = ["acc", "acc", "render"] + (["fold", "undo"] if maintainable else [])
    if depth == 0:
        kinds += ["merge", "merge", "copy"]
    ops = []
    for _ in range(data.draw(st.integers(1, 8 if depth == 0 else 3))):
        kind = data.draw(st.sampled_from(kinds))
        sign = data.draw(st.sampled_from([1, -1])) if maintainable else 1
        if kind in ("acc", "undo"):
            ops.append((kind, data.draw(rows_for(specs)), sign))
        elif kind == "fold":
            ops.append((kind, data.draw(rows_for(specs, min_size=1)), sign))
        elif kind == "merge":
            signed = data.draw(st.booleans())
            ops.append((kind, (signed, draw_ops(data, specs, depth + 1)), sign))
        else:
            ops.append((kind, None, sign))
    return ops


def run(pair, ops, data, copies):
    for kind, arg, sign in ops:
        if kind == "acc":
            pair.accumulate(arg, sign)
        elif kind == "undo":  # in and straight out again: groups retire
            pair.accumulate(arg, sign)
            pair.accumulate(arg, -sign)
        elif kind == "fold":
            pair.fold(arg, sign)
        elif kind == "merge":
            signed, inner = arg
            other = Pair(pair.specs, signed)
            run(other, inner, data, copies)
            pair.new.merge(other.new, sign=sign)
            pair.ref.merge(other.ref, sign=sign)
            assert_same_state(other.new, other.ref)  # ``other`` is not mutated
        elif kind == "copy":
            copies.append((pair.new, pair.new.finalize()))
            pair.new, pair.ref = pair.new.copy(), pair.ref.copy()
        else:
            live = list(pair.ref.keys())
            keys = data.draw(st.lists(st.sampled_from(live), max_size=6)) if live else []
            assert_same_rows(
                pair.new.finalize_slots(pair.new.slots_of(keys)),
                pair.ref.finalize_keys(keys),
            )
        assert_same_state(pair.new, pair.ref)


# Arbitrary floats overflow to inf; NumPy's vector adds say so, Python's don't.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(st.data())
def test_columnar_state_renders_what_the_reference_does(data):
    specs = data.draw(st.sampled_from([MAINTAINABLE, GENERAL]))
    pair = Pair(specs, signed=data.draw(st.booleans()))
    copies = []
    run(pair, draw_ops(data, specs), data, copies)
    for original, rows in copies:  # a copy shares nothing with its source
        assert_same_rows(original.finalize(), rows)


def test_streams_reach_the_interesting_states():
    """Pinned examples of what the random stream covers."""
    big = Pair(MAINTAINABLE, signed=False)
    big.accumulate([(("a",), (2**62, None, 2**53 + 1, None, None, 1))] * 3, 1)
    big.fold([(("a",), (2**62, 0.1, 2**53 + 1, 0.2, None, 1))] * 2, 1)
    assert_same_state(big.new, big.ref)
    row = big.new.finalize()[0]
    assert row[1] == 5 * 2**62 and type(row[1]) is int  # past 2**63, exact
    assert row[3] == (5 * (2**53 + 1)) / 5  # int / int, not through float64
    wide = [Pair(MAINTAINABLE, signed=False) for _ in range(2)]  # int64 + int64
    for pair in wide:
        pair.accumulate([(("a",), (2**62, None, 2**62, None, None, 1))], 1)
    wide[0].fold([(("a",), (2**62, None, 2**61, None, None, 1))], 1)
    wide[1].new.merge(wide[1].new.copy())
    wide[1].ref.merge(wide[1].ref.copy())
    for pair, total in zip(wide, (2**63, 2**63)):
        assert_same_state(pair.new, pair.ref)
        assert pair.new.finalize()[0][1] == total  # wrapped int64 caught
    signed = Pair(MAINTAINABLE, signed=True)
    signed.accumulate([(("a",), (1, 2.5, 1, 2.5, None, 1))], 1)
    signed.accumulate([(("a",), (1, 0.5, 1, 0.5, None, 1))], -1)
    assert_same_state(signed.new, signed.ref)
    assert signed.new.group_count() == 1  # COUNT(*) is 0, the float sum is not
    adopted = Pair(MAINTAINABLE, signed=False)  # an unsigned state retires it
    adopted.new.merge(signed.new)
    adopted.ref.merge(signed.ref)
    assert_same_state(adopted.new, adopted.ref)
    assert adopted.new.group_count() == 0
    retired = Pair(MAINTAINABLE, signed=False)
    retired.accumulate([(("a",), (1,) * 4 + (None, 1)), (("b",), (2,) * 4 + (None, 2))], 1)
    retired.accumulate([(("a",), (1,) * 4 + (None, 1))], -1)
    retired.accumulate([(("a",), (3,) * 4 + (None, 3))], 1)
    assert_same_state(retired.new, retired.ref)
    assert list(retired.new.keys()) == [("b",), ("a",)]  # re-added at the end
    text = Pair(GENERAL, signed=False)
    text.accumulate([(("a",), (0.5, 7, "b", "b", None)), (("a",), (None, 7, "a", "z", None))], 1)
    assert_same_state(text.new, text.ref)
    assert text.new.finalize() == [("a", 0.5, 1, "a", "z", 2)]
    with pytest.raises(CacheError):
        text.new.merge(text.new.copy(), sign=-1)
