"""Measure the current checkout: spread per metric, and the committed baseline.

Usage, from the root of a checkout:

    python3 bench/baseline.py [--workload NAME ...] [--runs 10] [--seed 1] [--out FILE]

For each workload, this runs the benchmark ``--runs`` times untraced, each
time with a new seed, and once traced. For every end-to-end metric it
reports the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the spread: the distance between the quartiles as a share of the
median. A spread above the metric's bound is marked ``WIDE``. With
``--out`` it writes everything, with the per-layer metrics of the traced run
and the provenance of the last run, as a JSON baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from compare import SPEC, run_once


def result_file(root: Path, workload: str, seed: int, trace: int) -> dict:
    return json.loads((root / ".bench_results" / f"{workload}_seed{seed}_trace{trace}.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    root = Path.cwd().resolve()
    report = {"run_seconds": SPEC["run_seconds"], "workloads": {}}
    for workload in args.workload or [w["name"] for w in SPEC["workloads"]]:
        seeds = list(range(args.seed, args.seed + args.runs))
        runs = [run_once(root, workload, seed) for seed in seeds]
        records = [result_file(root, workload, seed, 0) for seed in seeds]
        traced = run_once(root, workload, args.seed, trace=1)
        rows = {}
        print(f"{workload}: {sum(r['failed'] for r in runs)} of {sum(r['attempted'] for r in runs)} ops failed")
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            q = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q[2] - q[0]) / median
            wide = spread > metric["bound"]
            rows[name] = {"unit": metric["unit"], "median": median, "quartiles": [q[0], q[2]],
                          "spread": spread, "bound": metric["bound"], "values": values}
            print(f"  {name:<14} median {median:.4g} {metric['unit']:<4} spread {spread:.3f}"
                  f"  bound {metric['bound']}{'  WIDE' if wide else ''}")
        report["workloads"][workload] = {
            "seeds": seeds,
            "end_to_end": rows,
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "correct": all(r["correct"] for r in runs),
            "error_rate": [rec["error_rate"] for rec in records],
            "failure_reasons": records[-1]["failure_reasons"],
            "tail": [rec["tail"] for rec in records],
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
            "traced": {"seed": args.seed, "attempted": traced["attempted"], "failed": traced["failed"],
                       "correct": traced["correct"]},
            "provenance": records[-1]["provenance"],
        }
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
