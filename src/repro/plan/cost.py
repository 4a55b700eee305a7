"""The cost model: join ordering and scan-size estimation.

The engine keeps exactly one join-ordering algorithm — a left-deep order
over the (connected) join graph, probing from the largest input and
hashing the smallest connectable candidate first.  The *executor* runs it
over the **actual** scanned row counts of each subjoin, so the runtime
order adapts to visibility and filters.  EXPLAIN runs the same function over
**estimated** partition row counts (physical rows discounted by a fixed
per-filter selectivity) to display the expected order; physical plans
carry no order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import QueryError
from ..query.query import AggregateQuery, JoinEdge

#: Fixed selectivity attributed to each local/pushdown filter conjunct when
#: estimating scan sizes for EXPLAIN.  Deliberately crude — the estimate
#: only seeds the displayed join order, never execution or correctness.
FILTER_SELECTIVITY = 0.5


class JoinStep:
    """One step of the left-deep join plan: the alias to add and its edges."""

    __slots__ = ("alias", "edges")

    def __init__(self, alias: str, edges: List[JoinEdge]):
        self.alias = alias
        self.edges = edges


def choose_join_order(
    query: AggregateQuery,
    row_counts: Optional[Dict[str, int]] = None,
) -> Tuple[str, List[JoinStep]]:
    """Left-deep join order following the (connected) join graph.

    With ``row_counts`` (rows per alias — estimated at plan time, actual at
    run time) the probe side is seeded from the *largest* input and every
    joined alias — the side a hash table is built on — is picked
    smallest-first among the connectable candidates.  Without counts the
    FROM order is kept (the legacy plan; only used when inputs are unknown).
    """
    from_order = {ref.alias: i for i, ref in enumerate(query.tables)}
    remaining = [ref.alias for ref in query.tables]
    if row_counts is None:
        first = remaining.pop(0)
    else:
        # Probe the biggest side so hash tables are built on the small
        # ones; ties resolve in FROM order for determinism.
        first = max(remaining, key=lambda a: (row_counts[a], -from_order[a]))
        remaining.remove(first)
    joined = {first}
    steps: List[JoinStep] = []
    while remaining:
        candidates = []
        for alias in remaining:
            edges = [
                edge
                for edge in query.join_edges
                if alias in edge.aliases() and edge.other(alias)[0] in joined
            ]
            if edges:
                candidates.append((alias, edges))
        if not candidates:  # pragma: no cover - guarded by query validation
            raise QueryError(f"disconnected join graph at {remaining}")
        if row_counts is None:
            chosen = candidates
        else:
            candidates.sort(key=lambda c: (row_counts[c[0]], from_order[c[0]]))
            chosen = candidates[:1]
        for alias, edges in chosen:
            steps.append(JoinStep(alias, edges))
            joined.add(alias)
            remaining.remove(alias)
    return first, steps


def estimate_scan_rows(physical_rows: int, n_filters: int) -> int:
    """Expected rows surviving a scan with ``n_filters`` local conjuncts.

    ``ceil``-free on purpose: a partition with rows never estimates to zero
    (the floor is 1), so the estimated ordering cannot mistake a filtered
    partition for an empty one.
    """
    if physical_rows <= 0:
        return 0
    estimate = physical_rows * (FILTER_SELECTIVITY ** n_filters)
    return max(1, int(estimate))
