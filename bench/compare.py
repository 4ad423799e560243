"""Parent-vs-change comparison with identical benchmark code on both sides.

Usage:

    python3 bench/compare.py --parent DIR --change DIR \\
        [--workload NAME ...] [--pairs 10] [--seed 1000] [--out FILE]

DIR is the root of a checkout (it needs ``src/``). This file's own
``bench/run.py`` and BENCHMARK.json are used for both sides, so only the
package differs. Pair i uses seed ``--seed + i`` on both sides and
alternates which side runs first. For every workload x end-to-end metric it
reports each side's median and quartiles, the fraction of pairs the change
won (ties count for neither), and a verdict:

* ``unresolved``: the parent's own quartile spread exceeds the metric's bound,
  unless every change run beats every parent run;
* ``gain``: at least 10 pairs ran, the change won >= 9/10 of them and the
  medians differ by more than the parent's quartile spread;
* ``regression``: the change's median is worse than the parent's by more than
  the bound;
* ``no change`` otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
MIN_PAIRS = 10  # fewer pairs can show a regression but never claim a gain


def run_once(checkout: Path, workload: str, seed: int, trace: int = 0) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"benchmark failed in {checkout}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def better(a: float, b: float, direction: str) -> bool:
    return a < b if direction == "lower" else a > b


def verdict(parent: List[float], change: List[float], metric: dict) -> dict:
    direction, bound = metric["better"], metric["bound"]
    qp, qc = statistics.quantiles(parent, n=4), statistics.quantiles(change, n=4)
    mp, mc = statistics.median(parent), statistics.median(change)
    wins = sum(better(c, p, direction) for p, c in zip(parent, change)) / len(parent)
    parent_iqr = qp[2] - qp[0]
    worse_by = (mc - mp) / mp if direction == "lower" else (mp - mc) / mp
    all_better = all(better(c, p, direction) for c in change for p in parent)
    if parent_iqr / mp > bound and not all_better:
        call = "unresolved"
    elif len(parent) >= MIN_PAIRS and wins >= 0.9 and abs(mc - mp) > parent_iqr and better(mc, mp, direction):
        call = "gain"
    elif worse_by > bound:
        call = "regression"
    else:
        call = "no change"
    return {"parent": {"median": mp, "quartiles": [qp[0], qp[2]], "values": parent},
            "change": {"median": mc, "quartiles": [qc[0], qc[2]], "values": change},
            "pairs_won": wins, "parent_spread": parent_iqr / mp, "bound": bound,
            "worse_by": worse_by, "verdict": call}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1000)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    names = args.workload or [w["name"] for w in SPEC["workloads"]]
    report: Dict[str, dict] = {}
    for workload in names:
        runs: Dict[str, List[dict]] = {"parent": [], "change": []}
        for i in range(args.pairs):
            sides = [("parent", args.parent), ("change", args.change)]
            for side, checkout in sides if i % 2 == 0 else sides[::-1]:
                runs[side].append(run_once(checkout.resolve(), workload, args.seed + i))
        rows = {}
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            rows[name] = verdict([r["metrics"][name]["value"] for r in runs["parent"]],
                                 [r["metrics"][name]["value"] for r in runs["change"]], metric)
        report[workload] = {
            "metrics": rows,
            "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
            "attempted": {side: sum(r["attempted"] for r in rs) for side, rs in runs.items()},
            "correct": {side: all(r["correct"] for r in rs) for side, rs in runs.items()},
        }
        print(f"{workload}: failed parent {report[workload]['failed']['parent']}"
              f"/{report[workload]['attempted']['parent']}, change {report[workload]['failed']['change']}"
              f"/{report[workload]['attempted']['change']}")
        for name, row in rows.items():
            print(f"  {name:<14} parent {row['parent']['median']:.4g} change {row['change']['median']:.4g}"
                  f"  won {row['pairs_won']:.0%}  spread {row['parent_spread']:.3f}"
                  f"  bound {row['bound']}  {row['verdict']}")
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
