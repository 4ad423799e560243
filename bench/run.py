"""vsckinetics benchmark: one workload, end to end or traced per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {cli-mix,sweep-grid} \\
        --seed N --seconds S --trace {0,1}

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
BENCHMARK.json with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``, each with its unit. The full result (provenance, tail percentile and sample
count, error rate, failure reasons and, when traced, every span) is written
to ``.bench_results/``. The package is imported from ``src/`` of the
checkout; nothing is installed.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

import tracing
import workloads
from inputs import WORKLOADS, Plan

BENCH_DIR = Path(__file__).resolve().parent
SPEC_FILE = BENCH_DIR.parent / "BENCHMARK.json"
SETUP_PROBES = 11  # fresh interpreters timed per run for setup_s
# Fastest repetitions of each kind of cycle on which the throughput, median
# and CPU metrics are taken (kept_cycles).
KEEP_PER_KIND = 2
# Tail percentile over all completed ops: the highest one with >= 10 samples
# beyond it at the op count every run reaches (min_cycles). Fixed, so parent
# and change always compare the same percentile.
TAIL_PERCENTILE = {"cli-mix": 87, "sweep-grid": 98}
PASS_CAP_S = 70.0  # one measuring pass never runs longer, so a run exits well within 180 s
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def min_cycles(kinds: int) -> int:
    """Cycles every run reaches: twice the kept repetitions of each kind, so
    kept_cycles has slow ones to shed."""
    return 2 * KEEP_PER_KIND * kinds


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def checkout_root() -> Path:
    """The current directory, which must hold the package sources. The
    benchmark's own BENCHMARK.json and code may come from another checkout
    (see compare.py), so both sides of a comparison run identical code."""
    root = Path.cwd().resolve()
    if not (root / "src" / "vsckinetics" / "__init__.py").is_file():
        raise SystemExit(f"error: {root} has no src/vsckinetics; run from the root of a checkout")
    sys.path.insert(0, str(root / "src"))
    return root


def work_dir(root: Path) -> Path:
    base = root / ".bench_work"
    base.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=base))


def setup_probe(root: Path, workload: str, seed: int) -> None:
    """Do the workload's set-up in this fresh interpreter, then say so."""
    work = work_dir(root)
    try:
        plan = Plan(workload, seed, root)
        wl = workloads.make(root, work, plan)
        wl.setup(None)
        wl.prepare(plan.cycle(0))
        wl.probe_first_op()
        _check_import_origin(root)
        print("ready", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _check_import_origin(root: Path) -> None:
    module = sys.modules.get("vsckinetics")
    if module is not None and not Path(module.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"error: imported vsckinetics from {module.__file__}, not from {root / 'src'}")


def measure_setup(root: Path, workload: str, seed: int) -> List[float]:
    """Interpreter start until the first op could begin, in fresh processes."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
                               "--workload", workload, "--seed", str(seed), "--seconds", "0"],
                              cwd=root, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                code = proc.wait(timeout=60)
            finally:
                if proc.poll() is None:
                    proc.kill()
        if code != 0 or line.strip() != "ready":
            raise SystemExit(f"error: set-up of {workload} failed")
        times.append(elapsed)
    return times


def run_pass(wl, plan: Plan, seconds: float, tracer=None):
    """Whole cycles of ops until ``seconds`` have passed and min_cycles ran. With a tracer, each cycle runs traced and then again
    untraced (the twins), so trace.overhead compares the two on a machine
    in the same state."""
    outcomes: List[workloads.Outcome] = []
    twins: List[workloads.Outcome] = []
    start = time.perf_counter()
    k = 0
    while True:
        c0 = time.perf_counter()
        ops = plan.cycle(k)
        with workloads.span(tracer, "prepare"):
            wl.prepare(ops)
        for op in ops:
            if tracer is not None:
                tracer.op = len(outcomes)
            outcome = wl.execute(op, tracer)
            outcome.cycle = k
            outcomes.append(outcome)
        if tracer is not None:
            tracer.op = None
            tracer.uninstall()
            for op in ops:
                twin = wl.execute(op, None)
                twin.cycle = k
                twins.append(twin)
            tracer.install(tracing.WORK_COUNTERS)
        k += 1
        now = time.perf_counter()
        # stop at the cycle boundary nearest to ``seconds``
        if k >= min_cycles(plan.kinds) and now - start + (now - c0) / 2 >= seconds:
            break
        if now - start + (now - c0) > PASS_CAP_S:
            break
    return outcomes, twins, k


def percentile(values: List[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def kept_cycles(outcomes, kinds: int) -> List[workloads.Outcome]:
    """Ops of the KEEP_PER_KIND fastest cycles (by throughput, ties to the
    earlier cycle) of each of the ``kinds`` kinds of cycle. The cycles of a
    kind do the same work (see inputs.Plan.cycle), so a slow one is one that
    other tenants of the machine slowed down, while every kind, cheap or
    stiff, is kept. A change to the program moves every cycle, the kept
    ones too. A cost that hits only some cycles, such as a stall, is shed
    here and shows in op_tail_s, which is taken over every op."""
    per_cycle: Dict[int, List[workloads.Outcome]] = {}
    for o in outcomes:
        per_cycle.setdefault(o.cycle, []).append(o)

    def throughput(k: int) -> float:
        ops = per_cycle[k]
        return sum(1 for o in ops if o.failure is None) / sum(o.wall for o in ops)

    kept: List[workloads.Outcome] = []
    for kind in range(kinds):
        repeats = sorted((k for k in per_cycle if k % kinds == kind), key=lambda k: (-throughput(k), k))
        for k in repeats[:KEEP_PER_KIND]:
            kept += per_cycle[k]
    return kept


def end_to_end(workload: str, kinds: int, outcomes, setup_times: List[float],
               peak_rss_mb: float) -> Dict[str, float]:
    kept = kept_cycles(outcomes, kinds)
    ok = [o for o in kept if o.failure is None]
    latencies = sorted(o.wall for o in ok) or [float("nan")]
    every = sorted(o.wall for o in outcomes if o.failure is None) or [float("nan")]
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(ok) / sum(o.wall for o in kept),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": percentile(every, TAIL_PERCENTILE[workload]),
        "cpu_per_op_s": sum(o.cpu for o in kept) / max(len(ok), 1),
        "peak_rss_mb": peak_rss_mb,
    }


def peak_rss_mb(workload: str) -> float:
    """Peak resident set of the process that runs the ops (KiB on Linux):
    the CLI children for cli-mix, this process for sweep-grid."""
    who = resource.RUSAGE_CHILDREN if workload == "cli-mix" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def per_layer(tracer: tracing.Tracer, wl, traced, untraced) -> Dict[str, float]:
    roots = [s for s in tracer.spans if s.parent is None]
    wall = sum(s.end - s.start for s in roots)
    metrics = tracing.layer_metrics(tracer.spans, wall)
    counts = tracer.counts
    export_s = sum(s.end - s.start for s in tracer.spans if s.name == "config.export")
    export_bytes = counts.get("config.export_bytes", 0.0)
    metrics.update({
        "import.modules_loaded": wl.modules_loaded,
        "import.scipy_loaded": int(wl.scipy_loaded),
        "propagate.grid_points": counts.get("propagate.grid_points", 0.0),
        "propagate.state_dim_max": counts.get("propagate.state_dim_max", 0.0),
        "rates.nonzero_rates": counts.get("rates.nonzero_rates", 0.0),
        "config.export_bytes": export_bytes,
        "config.export_MB_per_s": export_bytes / 1e6 / export_s if export_s > 0 else 0.0,
        "trace.overhead": statistics.median(
            sum(o.wall for o in traced if o.cycle == k) / sum(o.wall for o in untraced if o.cycle == k)
            for k in {o.cycle for o in traced}) - 1.0,
    })
    return metrics


def provenance(root: Path, args: argparse.Namespace, plan: Plan, cycles: int, attempted: int) -> dict:
    import numpy  # already loaded by sweep-grid; late for cli-mix so it does not touch the ops

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (root / ".git").exists():
        try:
            found = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
            commit = found.stdout.strip() or None
        except OSError:
            pass
    uname = platform.uname()
    return {
        "machine": {"system": uname.system, "release": uname.release, "arch": uname.machine},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_commit": commit,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_size": dict(plan.size(), cycles=cycles, ops=attempted),
    }


def labelled(values: Dict[str, float], spec: List[dict]) -> Dict[str, dict]:
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise SystemExit(f"error: metrics {missing} were not measured")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    root = checkout_root()
    if args.setup_probe:
        setup_probe(root, args.workload, args.seed)
        return 0
    spec = json.loads(SPEC_FILE.read_text())
    plan = Plan(args.workload, args.seed, root)
    setup_times = [] if args.trace else measure_setup(root, args.workload, args.seed)
    work = work_dir(root)
    try:
        wl = workloads.make(root, work, plan)
        tracer = tracing.Tracer() if args.trace else None
        with workloads.span(tracer, "setup"):
            wl.setup(tracer)
        _check_import_origin(root)
        outcomes, untraced, cycles = run_pass(wl, plan, args.seconds, tracer)
        rss = peak_rss_mb(args.workload)
        if tracer is not None:
            tracer.uninstall()
            values = per_layer(tracer, wl, outcomes, untraced)
            outcomes = outcomes + untraced
            metrics = labelled(values, spec["per_layer"])
            tail = None
        else:
            values = end_to_end(args.workload, plan.kinds, outcomes, setup_times, rss)
            metrics = labelled(values, spec["end_to_end"])
            ok = [o.wall for o in outcomes if o.failure is None]
            tail = {"percentile": TAIL_PERCENTILE[args.workload], "samples": len(ok),
                    "beyond": sum(1 for wall in ok if wall > values["op_tail_s"]),
                    "cycles_kept": len({o.cycle for o in kept_cycles(outcomes, plan.kinds)}),
                    "cycles": cycles}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [o for o in outcomes if o.failure is not None]
    unexpected = [o for o in failed if not o.known_defect]
    reasons: Dict[str, int] = {}
    for o in failed:
        reasons[o.failure] = reasons.get(o.failure, 0) + 1
    result = {
        "correct": not unexpected,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": metrics,
    }
    record = dict(
        result,
        provenance=provenance(root, args, plan, cycles, len(outcomes)),
        error_rate=len(failed) / len(outcomes),
        known_defect_failures=len(failed) - len(unexpected),
        failure_reasons=reasons,
        tail=tail,
        setup_samples_s=setup_times,
        spans=tracer.to_json() if tracer is not None else None,
    )
    out_dir = root / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")
    for reason, count in sorted(reasons.items(), key=lambda kv: -kv[1]):
        print(f"failed x{count}: {reason}", file=sys.stderr)
    print(f"wrote {out_file.relative_to(root)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
