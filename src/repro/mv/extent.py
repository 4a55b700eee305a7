"""Materialized-view extents: where the view's rows live.

The paper's Section 1 framing of classical maintenance is the OLTP summary
table: "the handling of aggregates in OLTP systems is often done within the
application by maintaining predefined summary tables ... the related summary
tables must be updated in the same transaction".  The
:class:`SummaryTableExtent` models exactly that — the view's groups are rows
of an ordinary engine table, and every maintenance step is a transactional
insert/update/delete of that table.  :class:`InMemoryExtent` is the cheap
in-process alternative (a plain grouped hash map) for applications that do
not need the extent to be a queryable table.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..query.aggregates import AggFunc, AggregateSpec, GroupedAggregates

_KEY_SEPARATOR = "\x1f"


class InMemoryExtent:
    """Grouped hash-map extent (process memory, no engine writes)."""

    def __init__(self, specs: Sequence[AggregateSpec], initial: GroupedAggregates):
        self._grouped = initial

    def apply(self, key: Tuple, values: List[object], sign: int) -> None:
        """Fold one row change (key, per-spec values, sign) into the map."""
        self._grouped.accumulate((key,), [(value,) for value in values], sign=sign)

    def rows(self) -> List[Tuple]:
        """Finalized view rows."""
        return self._grouped.finalize()

    def replace(self, grouped: GroupedAggregates) -> None:
        """Full refresh: replace the grouped state."""
        self._grouped = grouped


class SummaryTableExtent:
    """Extent persisted as an engine summary table.

    One row per group; columns are the group values plus, per aggregate,
    the self-maintainable state (SUM and AVG keep ``sum``+``cnt``, COUNT
    keeps ``cnt``), plus the group's COUNT(*) used for group retirement.
    The group key is serialized into a single TEXT primary key so the
    storage engine's PK index provides the lookup the maintenance needs.
    """

    def __init__(self, db, specs: Sequence[AggregateSpec], n_group_cols: int,
                 table_name: str, initial: GroupedAggregates):
        self._db = db
        self._specs = list(specs)
        self._n_group = n_group_cols
        self._table_name = table_name
        columns: List[Tuple[str, str]] = [("gkey", "TEXT")]
        for i in range(n_group_cols):
            columns.append((f"g{i}", "TEXT"))
        for i, spec in enumerate(self._specs):
            if spec.func in (AggFunc.SUM, AggFunc.AVG):
                columns.append((f"a{i}_sum", "FLOAT"))
                columns.append((f"a{i}_cnt", "INT"))
            else:  # COUNT
                columns.append((f"a{i}_cnt", "INT"))
        columns.append(("n_star", "INT"))
        db.create_table(table_name, columns, primary_key="gkey")
        self._group_values: Dict[str, Tuple] = {}
        self._load_initial(initial)

    # ------------------------------------------------------------------
    def _serialize_key(self, key: Tuple) -> str:
        return _KEY_SEPARATOR.join(repr(part) for part in key)

    def _load_initial(self, grouped: GroupedAggregates) -> None:
        keys, n_star, states = grouped.state_columns()
        columns = {"n_star": n_star.tolist()}
        for i, (spec, arrays) in enumerate(zip(self._specs, states)):
            if spec.func in (AggFunc.SUM, AggFunc.AVG):
                columns[f"a{i}_sum"] = [float(v) for v in arrays[0].tolist()]
            columns[f"a{i}_cnt"] = arrays[-1].tolist()
        for pos, key in enumerate(keys):
            row = self._fresh_row(key)
            for name, values in columns.items():
                row[name] = values[pos]
            self._db.insert(self._table_name, row)

    def _fresh_row(self, key: Tuple) -> Dict[str, object]:
        gkey = self._serialize_key(key)
        self._group_values[gkey] = key
        row: Dict[str, object] = {"gkey": gkey}
        for i, part in enumerate(key):
            row[f"g{i}"] = None if part is None else str(part)
        for i, spec in enumerate(self._specs):
            if spec.func in (AggFunc.SUM, AggFunc.AVG):
                row[f"a{i}_sum"] = 0.0
                row[f"a{i}_cnt"] = 0
            else:
                row[f"a{i}_cnt"] = 0
        row["n_star"] = 0
        return row

    # ------------------------------------------------------------------
    def apply(self, key: Tuple, values: List[object], sign: int) -> None:
        """One transactional summary-table write per maintained base row."""
        table = self._db.table(self._table_name)
        gkey = self._serialize_key(key)
        current = table.get_row(gkey)
        if current is None:
            current = self._fresh_row(key)
            self._update_states(current, values, sign)
            self._db.insert(self._table_name, current)
            return
        self._group_values.setdefault(gkey, key)
        n_star = current["n_star"] + sign
        if n_star == 0:
            self._db.delete(self._table_name, gkey)
            return
        changes = self._update_states(dict(current), values, sign)
        changes["n_star"] = n_star
        self._db.update(self._table_name, gkey, changes)

    def _update_states(
        self, row: Dict[str, object], values: List[object], sign: int
    ) -> Dict[str, object]:
        row["n_star"] = row.get("n_star", 0) + sign
        for i, spec in enumerate(self._specs):
            value = values[i]
            if spec.func in (AggFunc.SUM, AggFunc.AVG):
                if value is not None:
                    row[f"a{i}_sum"] = row[f"a{i}_sum"] + sign * float(value)
                    row[f"a{i}_cnt"] = row[f"a{i}_cnt"] + sign
            else:  # COUNT
                if spec.arg is None or value is not None:
                    row[f"a{i}_cnt"] = row[f"a{i}_cnt"] + sign
        return row

    # ------------------------------------------------------------------
    def rows(self) -> List[Tuple]:
        """Finalized view rows read from the summary table."""
        table = self._db.table(self._table_name)
        snapshot = self._db.transactions.global_snapshot()
        state_columns = []
        for i, spec in enumerate(self._specs):
            if spec.func in (AggFunc.SUM, AggFunc.AVG):
                state_columns.append((spec.func, f"a{i}_sum", f"a{i}_cnt"))
            else:
                state_columns.append((spec.func, None, f"a{i}_cnt"))
        out: List[Tuple] = []
        for partition in table.partitions():
            rows = np.flatnonzero(partition.visible_mask(snapshot))
            if not len(rows):
                continue
            gkeys = partition.column("gkey").decode_rows(rows)
            decoded = {}
            for _func, sum_col, cnt_col in state_columns:
                if sum_col is not None and sum_col not in decoded:
                    decoded[sum_col] = partition.column(sum_col).decode_rows(rows)
                if cnt_col not in decoded:
                    decoded[cnt_col] = partition.column(cnt_col).decode_rows(rows)
            for pos in range(len(rows)):
                rendered: List[object] = list(self._group_values[gkeys[pos]])
                for func, sum_col, cnt_col in state_columns:
                    cnt = decoded[cnt_col][pos]
                    if func is AggFunc.SUM:
                        rendered.append(decoded[sum_col][pos] if cnt > 0 else None)
                    elif func is AggFunc.AVG:
                        rendered.append(
                            decoded[sum_col][pos] / cnt if cnt > 0 else None
                        )
                    else:
                        rendered.append(cnt)
                out.append(tuple(rendered))
        return out

    def replace(self, grouped: GroupedAggregates) -> None:
        """Full refresh: drop and rebuild the summary table contents."""
        table = self._db.table(self._table_name)
        snapshot = self._db.transactions.global_snapshot()
        gkeys = []
        for partition in table.partitions():
            mask = partition.visible_mask(snapshot)
            fragment = partition.column("gkey")
            gkeys.extend(fragment.value_at(int(i)) for i in np.flatnonzero(mask))
        for gkey in gkeys:
            self._db.delete(self._table_name, gkey)
        self._group_values.clear()
        self._load_initial(grouped)
