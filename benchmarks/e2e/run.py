#!/usr/bin/env python3
"""The repo's one benchmark: ``python3 benchmarks/e2e/run.py --workload NAME``.

One run builds a database, replays a fixed-seed, fixed-op-count statement
stream through the public ``Database`` facade from one client thread,
checks every answer, and prints every metric by name with its unit.  The
last line of standard output is the machine-readable result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}

with the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  ``--aa N`` runs the repeatability check, ``--collect N``
writes a result file for ``compare.py``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SPEC_PATH = REPO / "BENCHMARK.json"
DETAIL_PREFIX = "detail: "


def clean_environment() -> None:
    """Re-exec once with a fixed hash seed and no ``REPRO_*`` knob, so the
    engine runs its defaults (serial, default kernel, no deadline, no memory
    budget) and set iteration order repeats."""
    stray = [key for key in os.environ if key.startswith("REPRO_")]
    if os.environ.get("PYTHONHASHSEED") == "0" and not stray:
        return
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    os.execve(sys.executable, [sys.executable, *sys.argv], env)


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def parse_args(spec: dict) -> argparse.Namespace:
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="op counts / 20 and one set-up: a smoke run, not a measurement",
    )
    parser.add_argument(
        "--aa",
        type=int,
        nargs="?",
        const=5,
        metavar="N",
        help="two alternating sets of N runs per workload of this same "
        "checkout; non-zero exit if they disagree beyond the bounds",
    )
    parser.add_argument(
        "--collect",
        type=int,
        metavar="N",
        help="N untraced runs and one traced run per workload, written to --out",
    )
    parser.add_argument("--out", type=Path, help="result file of --collect")
    args = parser.parse_args()
    if args.aa is None and args.collect is None and args.workload is None:
        parser.error("--workload is required for a single run")
    if args.collect is not None and args.out is None:
        parser.error("--collect needs --out")
    return args


# -----------------------------------------------------------------------------
# one run
# -----------------------------------------------------------------------------
def single_run(args: argparse.Namespace, spec: dict) -> int:
    from driver import SETUP_REPS, Run
    from workloads import WORKLOADS

    run = Run(
        WORKLOADS[args.workload],
        seed=args.seed,
        seconds=args.seconds / 20.0 if args.quick else args.seconds,
        trace=bool(args.trace),
        workdir=HERE / "out",
        setup_reps=1 if args.quick else SETUP_REPS,
    )
    result = run.execute()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if args.trace:
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result.pop("per_layer").items()
        }
    else:
        metrics = {
            name: {"value": value, "unit": units[name]}
            for name, value in result["end_to_end"].items()
        }
    print_report(result, metrics, units)
    print(DETAIL_PREFIX + json.dumps(result, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


def print_report(result: dict, metrics: dict, units: dict) -> None:
    host = result["host"]
    print(
        f"workload {result['workload']}  seed {result['seed']}  "
        f"seconds {result['seconds']:g}  digest {result['result_digest']}"
    )
    print(
        f"host: calibration kernel p50 {host['cal_ms_p50']:.3f} ms CPU, p95/p5 "
        f"{host['cal_spread']:.2f}, wall/CPU of the replay "
        f"{host['wall_over_cpu']:.2f}" + ("" if host["settled"] else "  ** unsettled **")
    )
    for name, metric in metrics.items():
        print(f"  {name:<46} {metric['value']:>16.6g} {metric['unit']}")
    if set(metrics) != set(result["end_to_end"]):
        for name, value in result["end_to_end"].items():
            print(f"  {name:<46} {value:>16.6g} {units[name]}  (traced run: not a metric)")
    print(f"  {'error_rate':<46} {result['error_rate']:>16.6g} ratio")
    for name, value in result["raw"].items():
        print(f"  {name:<46} {value:>16.6g}")
    for group in ("counts", "read_counts", "cache_state"):
        print(f"  {group}: " + "  ".join(f"{k}={v:g}" for k, v in result[group].items()))


# -----------------------------------------------------------------------------
# many runs
# -----------------------------------------------------------------------------
def child_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run in a fresh process; returns its detail and metrics."""
    done = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        capture_output=True,
        text=True,
        check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    detail = next(line for line in reversed(lines) if line.startswith(DETAIL_PREFIX))
    out = json.loads(detail[len(DETAIL_PREFIX):])
    out["metrics"] = {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()}
    return out


def collect_sets(args: argparse.Namespace, spec: dict, n_sets: int, runs: int) -> list:
    """``n_sets`` interleaved sets of ``runs`` untraced runs per workload."""
    sets = [
        {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
        for _ in range(n_sets)
    ]
    for workload in (w["name"] for w in spec["workloads"]):
        slots = [
            s["workloads"].setdefault(
                workload, {"end_to_end": {}, "digests": [], "failed": 0}
            )
            for s in sets
        ]
        for index in range(runs):
            for label, slot in zip("AB", slots):
                out = child_run(workload, args.seed, args.seconds, trace=0)
                for name, value in out["metrics"].items():
                    slot["end_to_end"].setdefault(name, []).append(value)
                slot["digests"].append(out["result_digest"])
                slot["failed"] += out["failed"]
                print(
                    f"{workload} run {index + 1}/{runs} set {label}: "
                    f"ops_per_s {out['metrics']['ops_per_s']:.4g}, "
                    f"failed {out['failed']}, digest {out['result_digest']}",
                    file=sys.stderr,
                )
    return sets


def main() -> int:
    clean_environment()
    sys.path[:0] = [str(HERE), str(REPO / "src")]
    spec = load_spec()
    args = parse_args(spec)
    if args.aa is not None:
        import compare

        first, second = collect_sets(args, spec, n_sets=2, runs=args.aa)
        return compare.report(first, second, spec, same_code=True)
    if args.collect is not None:
        (result,) = collect_sets(args, spec, n_sets=1, runs=args.collect)
        for workload, slot in result["workloads"].items():
            slot["per_layer"] = child_run(workload, args.seed, args.seconds, trace=1)[
                "metrics"
            ]
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
        return 0
    return single_run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
