#!/usr/bin/env python3
"""Compare two result files of ``run.py --collect`` (parent first, change second).

    python3 benchmarks/e2e/compare.py baselines/seed.json candidate.json

Each pairing of workload and end-to-end metric gets its own row: both
medians, how much worse the second is (signed by the metric's direction),
the bound from ``BENCHMARK.json`` and a verdict.  A median worse by more
than its bound is a ``REGRESSION`` (exit code 1).  A pairing whose
run-to-run spread (quartile distance over median, on either side) exceeds
the bound is ``unresolved``: it cannot be called unchanged.  No combined
score is computed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from measure import spread, worsening


def compare(first: dict, second: dict, spec: dict, same_code: bool = False) -> list:
    """One row per (workload, end-to-end metric) present on both sides.

    ``same_code`` is the A/A reading: the two sides ran identical code, so a
    gap beyond the bound in *either* direction is a failure of the benchmark
    to repeat, and so is a differing ``result_digest``.
    """
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        a = first["workloads"].get(workload)
        b = second["workloads"].get(workload)
        if a is None or b is None:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in a["end_to_end"] or name not in b["end_to_end"]:
                continue
            values_a, values_b = a["end_to_end"][name], b["end_to_end"][name]
            median_a = statistics.median(values_a)
            median_b = statistics.median(values_b)
            worse = worsening(median_a, median_b, metric["better"])
            widest = max(spread(values_a), spread(values_b))
            gap = abs(worse) if same_code else worse
            if gap > metric["bound"]:
                verdict = "DISAGREE" if same_code else "REGRESSION"
            elif widest > metric["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric["unit"],
                    "first": median_a,
                    "second": median_b,
                    "worse": worse,
                    "bound": metric["bound"],
                    "spread": widest,
                    "verdict": verdict,
                }
            )
        failed = a.get("failed", 0) + b.get("failed", 0)
        same_seed = first.get("seed") == second.get("seed")
        digests = set(a.get("digests", ())) | set(b.get("digests", ()))
        if failed:
            rows.append(_flag(workload, "error_rate", f"{failed} failed operations"))
        if same_code and same_seed and len(digests) > 1:
            rows.append(_flag(workload, "result_digest", f"{len(digests)} digests"))
    return rows


def _flag(workload: str, metric: str, what: str) -> dict:
    return {"workload": workload, "metric": metric, "verdict": "DISAGREE", "note": what}


def render(rows: list) -> str:
    lines = [
        f"{'workload':<18} {'metric':<22} {'first':>12} {'second':>12} "
        f"{'worse':>8} {'bound':>6} {'spread':>7}  verdict"
    ]
    for row in rows:
        if "note" in row:
            lines.append(
                f"{row['workload']:<18} {row['metric']:<22} {row['note']:>50}  "
                f"{row['verdict']}"
            )
            continue
        lines.append(
            f"{row['workload']:<18} {row['metric']:<22} {row['first']:>12.5g} "
            f"{row['second']:>12.5g} {row['worse'] * 100:>+7.2f}% "
            f"{row['bound'] * 100:>5.1f}% {row['spread'] * 100:>6.2f}%  "
            f"{row['verdict']}"
        )
    return "\n".join(lines)


def report(first: dict, second: dict, spec: dict, same_code: bool = False) -> int:
    """Print the comparison; returns the process exit code."""
    rows = compare(first, second, spec, same_code)
    print(render(rows))
    bad = [r for r in rows if r["verdict"] in ("REGRESSION", "DISAGREE")]
    unresolved = [r for r in rows if r["verdict"] == "unresolved"]
    print(
        f"{len(rows)} pairings: {len(bad)} beyond their bound, "
        f"{len(unresolved)} unresolved (spread wider than the bound)"
    )
    return 1 if bad else 0


def main(argv: list) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(
        (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
    )
    first, second = (json.loads(Path(p).read_text()) for p in argv[1:])
    return report(first, second, spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
