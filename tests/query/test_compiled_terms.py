"""Compiled terms and the direct fold.

A statement's :class:`~repro.query.executor.CompiledTerms` remembers the
join order of each dense rank pattern of its inputs' row counts; the order
must be the one :func:`~repro.plan.cost.choose_join_order` picks for every
count vector, ties included.  Each subjoin folds straight into the target:
its rows reduced per group from zero, then each reduction added once with
the sign — bit for bit what a per-subjoin partial merged into the target
gives, on both kernels and both signs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database
from repro.plan.cost import choose_join_order
from repro.query import ComboSpec, QueryExecutor, parse_sql
from repro.query import executor as executor_module
from repro.query.aggregates import GroupedAggregates
from repro.query.operators import KERNEL_ROWLOOP, KERNEL_VECTORIZED, kernel_override

CHAIN = ("a", "b", "c", "d")


def _chain_db() -> Database:
    """Four tables joined in a chain a - b - c - d, plus a star edge a - c."""
    db = Database()
    for name in CHAIN:
        db.create_table(
            name, [("k", "INT"), ("nxt", "INT"), ("v", "FLOAT")], primary_key="k"
        )
    return db


STATEMENTS = [
    "SELECT COUNT(*) AS n FROM a a, b b WHERE a.nxt = b.k",
    "SELECT COUNT(*) AS n FROM a a, b b, c c WHERE a.nxt = b.k AND b.nxt = c.k",
    "SELECT COUNT(*) AS n FROM a a, b b, c c WHERE a.nxt = b.k AND a.k = c.k",
    "SELECT COUNT(*) AS n FROM a a, b b, c c, d d "
    "WHERE a.nxt = b.k AND b.nxt = c.k AND c.nxt = d.k",
    "SELECT COUNT(*) AS n FROM d d, c c, b b, a a "
    "WHERE a.nxt = b.k AND b.nxt = c.k AND a.k = d.k AND b.k = d.nxt",
]


def _order(order):
    first, steps = order
    return first, [(step.alias, [edge.canonical() for edge in step.edges]) for step in steps]


@pytest.fixture(scope="module")
def compiled_statements():
    db = _chain_db()
    return [db.executor.compile(parse_sql(sql)) for sql in STATEMENTS]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    index=st.integers(0, len(STATEMENTS) - 1),
    counts=st.lists(st.integers(0, 4), min_size=4, max_size=4),
    scale=st.sampled_from([1, 7, 1000]),
)
def test_memoized_join_order_equals_choose_join_order(compiled_statements, index, counts, scale):
    """Small count ranges make ties common; the scale moves the values but
    not the pattern, so the second vector of a pattern is a memo hit."""
    compiled = compiled_statements[index]
    aliases = [ref.alias for ref in compiled.query.tables]
    vector = {alias: count * scale for alias, count in zip(aliases, counts)}
    assert _order(compiled.join_order(vector)) == _order(
        choose_join_order(compiled.query, vector)
    )


def test_a_memo_hit_skips_choose_join_order(compiled_statements, monkeypatch):
    compiled = compiled_statements[3]
    counts = {"a": 5, "b": 1, "c": 5, "d": 3}
    compiled.join_order(counts)
    calls = []
    monkeypatch.setattr(
        executor_module, "choose_join_order", lambda *args: calls.append(args)
    )
    first, _steps = compiled.join_order({"a": 50, "b": 2, "c": 50, "d": 9})
    assert calls == [] and first == "a"


def test_the_memo_is_bounded():
    compiled = _chain_db().executor.compile(parse_sql(STATEMENTS[3]))
    for a in range(6):
        for b in range(6):
            for c in range(6):
                compiled.join_order({"a": a, "b": b, "c": c, "d": 2})
    assert len(compiled._orders) == executor_module._JOIN_ORDER_PATTERNS


# ---------------------------------------------------------------------------
# the direct fold against a per-subjoin partial merged into the target
# ---------------------------------------------------------------------------
VALUES = [0.1, 0.2, 1e16, 0.3, -0.1, 2.5, 1e-3]


def _fold_db(rows_per_part: int) -> Database:
    """A fact table over a dimension, with rows in the mains and deltas of
    both, whose float values sum inexactly."""
    db = Database()
    db.create_table("dim", [("k", "INT"), ("g", "TEXT")], primary_key="k")
    db.create_table(
        "fact", [("id", "INT"), ("k", "INT"), ("v", "FLOAT"), ("w", "INT")], primary_key="id"
    )
    for k in range(6):
        db.insert("dim", {"k": k, "g": f"g{k % 3}"})
    fid = 0
    for part in range(2):
        for r in range(rows_per_part):
            value = None if r % 11 == 5 else VALUES[(r + part) % len(VALUES)] * (1 + r % 3)
            db.insert("fact", {"id": fid, "k": r % 6, "v": value, "w": r * 7 - 40})
            fid += 1
        if part == 0:
            db.merge()
    return db


SELF_MAINTAINABLE = (
    "SELECT d.g AS g, SUM(f.v) AS s, AVG(f.v) AS a, COUNT(f.v) AS c, SUM(f.w) AS w, "
    "COUNT(*) AS n FROM fact f, dim d WHERE f.k = d.k GROUP BY d.g"
)
EXTREMA = (
    "SELECT d.g AS g, MIN(f.v) AS lo, MAX(f.v) AS hi, COUNT(DISTINCT f.w) AS dw, "
    "SUM(f.v) AS s FROM fact f, dim d WHERE f.k = d.k GROUP BY d.g"
)


def _state(grouped: GroupedAggregates):
    """Keys in order and every component by value, Python type and float.hex."""
    keys, stars, specs = grouped.state_columns()

    def exact(value):
        if isinstance(value, float):
            return ("float", value.hex())
        if isinstance(value, set):
            return ("set", sorted(value))
        return (type(value).__name__, value)

    return keys, stars.tolist(), [
        [[exact(v) for v in component.tolist()] for component in spec] for spec in specs
    ]


def _reference(executor, query, snapshot, combos, into, sign):
    """The fold as a per-subjoin partial, each merged into the target."""
    for combo in combos:
        partial = into.new_like()
        executor.execute(query, snapshot, combos=[combo], into=partial, sign=sign)
        into.merge(partial)


@pytest.mark.parametrize("kernel", [KERNEL_ROWLOOP, KERNEL_VECTORIZED])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("signed", [False, True])
def test_direct_fold_equals_partial_then_merge(kernel, sign, signed):
    db = _fold_db(rows_per_part=60)  # past the vectorized aggregation's floor
    executor: QueryExecutor = db.executor
    query = executor.bind(parse_sql(SELF_MAINTAINABLE))
    snapshot = db.transactions.global_snapshot()
    combos = [
        ComboSpec(dict(zip(("f", "d"), parts)))
        for parts in (
            (db.table("fact").partition(f), db.table("dim").partition(d))
            for f in ("main", "delta")
            for d in ("main", "delta")
        )
    ]
    with kernel_override(kernel):
        seed = executor.execute(query, snapshot, combos=combos[:1])
        for start in (GroupedAggregates(query.aggregates, signed=signed), seed):
            direct, reference = start.copy(), start.copy()
            executor.execute(query, snapshot, combos=combos, into=direct, sign=sign)
            _reference(executor, query, snapshot, combos, reference, sign)
            assert _state(direct) == _state(reference)


@pytest.mark.parametrize("sign", [1, -1])
def test_both_kernels_reduce_in_row_order(sign):
    """The row loop's reduction adds a group's rows in row order, as the
    vectorized path's ``bincount`` does: non-quantum sums agree bit for bit."""
    db = _fold_db(rows_per_part=60)
    executor = db.executor
    query = executor.bind(parse_sql(SELF_MAINTAINABLE))
    snapshot = db.transactions.global_snapshot()
    states = []
    for kernel in (KERNEL_ROWLOOP, KERNEL_VECTORIZED):
        with kernel_override(kernel):
            into = executor.execute(query, snapshot)
            executor.execute(query, snapshot, into=into, sign=sign)
            states.append(_state(into))
    assert states[0] == states[1]


def test_row_loop_extrema_and_distinct_fold_like_a_merged_partial():
    db = _fold_db(rows_per_part=30)
    executor = db.executor
    query = executor.bind(parse_sql(EXTREMA))
    snapshot = db.transactions.global_snapshot()
    fact, dim = db.table("fact"), db.table("dim")
    combos = [
        ComboSpec({"f": fact.partition(f), "d": dim.partition("main")})
        for f in ("main", "delta")
    ]
    with kernel_override(KERNEL_ROWLOOP):
        direct = executor.execute(query, snapshot, combos=combos)
        reference = GroupedAggregates(query.aggregates)
        _reference(executor, query, snapshot, combos, reference, 1)
    assert _state(direct) == _state(reference)
    assert direct.finalize() == reference.finalize()


def test_a_failing_reduction_leaves_the_target_untouched(monkeypatch):
    db = _fold_db(rows_per_part=60)
    executor = db.executor
    query = executor.bind(parse_sql(SELF_MAINTAINABLE))
    snapshot = db.transactions.global_snapshot()
    into = executor.execute(query, snapshot)
    before = _state(into)

    class NumpyWithFailingBincount:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def bincount(*args, **kwargs):
            if "weights" in kwargs:
                raise FloatingPointError("reduction failed")
            return np.bincount(*args, **kwargs)

    from repro.query import operators

    monkeypatch.setattr(operators, "np", NumpyWithFailingBincount())
    with kernel_override(KERNEL_VECTORIZED), pytest.raises(FloatingPointError):
        executor.execute(query, snapshot, into=into)
    assert _state(into) == before
