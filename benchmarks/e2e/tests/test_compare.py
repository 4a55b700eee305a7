"""Verdicts of the comparison: bound, direction, spread, A/A reading."""

from compare import compare

SPEC = {
    "workloads": [{"name": "w", "why": ""}],
    "end_to_end": [
        {"name": "read_p50_ms", "unit": "ms", "better": "lower", "bound": 0.10},
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.10},
    ],
}


def result(read, ops, digests=("d",), failed=0, seed=1):
    return {
        "seed": seed,
        "workloads": {
            "w": {
                "end_to_end": {"read_p50_ms": read, "ops_per_s": ops},
                "digests": list(digests),
                "failed": failed,
            }
        },
    }


def verdicts(rows):
    return {row["metric"]: row["verdict"] for row in rows}


def test_within_bound_is_ok_and_beyond_is_a_regression_by_direction():
    parent = result([10.0, 10.1, 9.9], [100.0, 101.0, 99.0])
    slower = result([11.5, 11.6, 11.4], [85.0, 86.0, 84.0])
    faster = result([8.0, 8.1, 7.9], [120.0, 121.0, 119.0])
    assert verdicts(compare(parent, parent, SPEC)) == {
        "read_p50_ms": "ok",
        "ops_per_s": "ok",
    }
    assert set(verdicts(compare(parent, slower, SPEC)).values()) == {"REGRESSION"}
    assert set(verdicts(compare(parent, faster, SPEC)).values()) == {"ok"}


def test_spread_wider_than_the_bound_is_unresolved_not_unchanged():
    parent = result([10.0, 10.1, 9.9], [100.0, 101.0, 99.0])
    noisy = result([8.0, 10.0, 12.5], [100.0, 101.0, 99.0])
    assert verdicts(compare(parent, noisy, SPEC)) == {
        "read_p50_ms": "unresolved",
        "ops_per_s": "ok",
    }


def test_same_code_reading_flags_gaps_both_ways_digests_and_failures():
    a = result([10.0, 10.1, 9.9], [100.0, 101.0, 99.0])
    faster = result([8.0, 8.1, 7.9], [100.0, 101.0, 99.0])
    assert verdicts(compare(a, faster, SPEC, same_code=True))["read_p50_ms"] == "DISAGREE"
    other_digest = result([10.0, 10.1, 9.9], [100.0, 101.0, 99.0], digests=("e",))
    assert verdicts(compare(a, other_digest, SPEC, same_code=True))[
        "result_digest"
    ] == "DISAGREE"
    failing = result([10.0, 10.1, 9.9], [100.0, 101.0, 99.0], failed=2)
    assert verdicts(compare(a, failing, SPEC))["error_rate"] == "DISAGREE"
