"""All four workloads end to end at 1/20 of the op counts."""

import json
from pathlib import Path


from driver import Run
from hostcal import HostClock
from workloads import WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parents[3] / "BENCHMARK.json").read_text())
QUICK_SECONDS = SPEC["run_seconds"] / 20.0


def quick(name, seed, tmp_path, trace=False):
    run = Run(
        WORKLOADS[name],
        seed=seed,
        seconds=QUICK_SECONDS,
        trace=trace,
        workdir=tmp_path,
        setup_reps=1,
    )
    return run, run.execute()


def test_quick_mode_runs_all_four_workloads_correctly_in_under_30_s(tmp_path):
    expected = {m["name"] for m in SPEC["end_to_end"]}
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)

    def all_four():
        for name in WORKLOADS:
            _run, result = quick(name, 1, tmp_path)
            assert result["failed"] == 0 and result["correct"], name
            assert set(result["end_to_end"]) == expected, name
            assert all(value > 0 for value in result["end_to_end"].values()), name

    # Seconds as the benchmark itself counts them: CPU time on the
    # reference host, so a stolen or slow core does not fail the test.
    _none, cpu, _wall, scale = HostClock().bracketed(all_four)
    assert cpu * scale < 30.0


def test_same_seed_repeats_stream_counts_and_digest_another_seed_does_not(tmp_path):
    run_a, a = quick("erp_write_heavy", 7, tmp_path)
    run_b, b = quick("erp_write_heavy", 7, tmp_path)
    _run_c, c = quick("erp_write_heavy", 8, tmp_path)
    assert run_a.op_kinds == run_b.op_kinds
    for exact in ("counts", "read_counts", "cache_state", "result_digest"):
        assert a[exact] == b[exact], exact
    for name in ("cache_bytes_per_row", "storage_bytes_per_row", "wal_bytes_per_row"):
        assert a["end_to_end"][name] == b["end_to_end"][name]
    assert a["result_digest"] != c["result_digest"]


def test_traced_run_reports_every_declared_per_layer_metric(tmp_path):
    _run, result = quick("ch_mixed", 1, tmp_path, trace=True)
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    reported = {name: unit for name, (_value, unit) in result["per_layer"].items()}
    assert reported == declared
    layer = {name: value for name, (value, _unit) in result["per_layer"].items()}
    assert layer["core.pruning.subjoins_enumerated_per_read"] > 0
    assert layer["core.manager.evictions"] == 0
    assert layer["core.manager.entry_build_ms"] > 0
    spans = tmp_path / "spans-ch_mixed-1.jsonl"
    first = json.loads(spans.read_text().splitlines()[0])
    assert {"id", "name", "start", "end", "parent", "request", "scale"} == set(first)
