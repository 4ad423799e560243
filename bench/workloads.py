"""The two workloads: set-up, one op, and the correctness check of its output.

``cli-mix`` runs each op as a fresh ``python -m vsckinetics.cli`` process
(or, traced, as ``cli_helper.py``). ``sweep-grid`` calls the package in
process through a module attribute (``config.run_sweep``), so installed
layer wrappers see every call.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import checks
import tracing
from inputs import REGIMES, VALUES_PER_SWEEP, Plan, bundled_config

BENCH_DIR = Path(__file__).resolve().parent
OP_TIMEOUT_S = 120


@dataclass
class Outcome:
    wall: float  # s, the op alone
    cpu: float  # s, user + sys of this process and its children during the op
    failure: Optional[str] = None  # None when the op ran and its output checked out
    known_defect: bool = False  # the failure is the documented g = 0 vsc defect
    cycle: int = 0


def span(tracer: Optional[tracing.Tracer], name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _write_configs(configs: Dict[str, dict], directory: Path) -> Dict[str, Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, raw in configs.items():
        paths[name] = directory / f"{name}.json"
        paths[name].write_text(json.dumps(raw, indent=2) + "\n")
    return paths


def is_known_defect(op: dict, error: BaseException) -> bool:
    """vsc g scans that start at g = 0 hit "modes '+' and '-' are degenerate"."""
    return (
        op.get("regime") == "vsc"
        and op.get("family") == "g"
        and op["values"][0] == 0.0
        and "degenerate" in str(error)
    )


class SweepGrid:
    """In-process run_sweep calls, no export."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.modules_loaded = 0
        self.scipy_loaded = False

    def setup(self, tracer: Optional[tracing.Tracer]) -> None:
        with span(tracer, tracing.IMPORT_LAYER):
            importlib.import_module("vsckinetics.cli")
        self.modules_loaded = len(sys.modules)
        self.scipy_loaded = any(name.split(".")[0] == "scipy" for name in sys.modules)
        if tracer is not None:
            tracer.install(tracing.WORK_COUNTERS)
        self.config = importlib.import_module("vsckinetics.config")

    def probe_first_op(self) -> None:
        """Nothing beyond setup and prepare: the first op can begin."""

    def prepare(self, ops: List[dict]) -> None:
        """Write and load the configs of one cycle's ops, outside op timing."""
        configs = {f"op{i}_{op['config']['name']}": op["config"] for i, op in enumerate(ops)}
        paths = _write_configs(configs, self.work / "configs")
        for op, path in zip(ops, paths.values()):
            try:
                op["base"] = self.config.load_config(path)
            except Exception as exc:  # counted as the op's failure in execute
                op["load_error"] = f"load_config: {type(exc).__name__}: {exc}"
            path.unlink()

    def execute(self, op: dict, tracer: Optional[tracing.Tracer]) -> Outcome:
        if "load_error" in op:
            return Outcome(0.0, 0.0, op["load_error"])
        config = self.config
        error = None
        c0, t0 = time.process_time(), time.perf_counter()
        with span(tracer, "op"):
            try:
                spec = config.SweepSpec(parameter=op["family"], values=tuple(op["values"]),
                                        base=op["base"])
                results = config.run_sweep(spec)
            except Exception as exc:  # every failure is counted, none ends the run
                error = exc
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        if error is not None:
            return Outcome(wall, cpu, f"{type(error).__name__}: {error}", is_known_defect(op, error))
        return Outcome(wall, cpu, self._check(op, results))

    def _check(self, op: dict, results) -> Optional[str]:
        if len(results) != len(op["values"]):
            return f"{len(results)} results for {len(op['values'])} values"
        for result in results:
            err = checks.population_error(result.trajectory.state_populations)
            if err:
                return f"{result.label}: {err}"
        return None


class CliMix:
    """Fresh-process CLI commands; traced ops run through cli_helper.py."""

    def __init__(self, root: Path, work: Path, plan: Plan) -> None:
        self.root, self.work, self.plan = root, work, plan
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.reference = checks.load_reference()
        self.digests: Dict[str, str] = {}
        self.modules_loaded = 0
        self.scipy_loaded = False

    def setup(self, tracer: Optional[tracing.Tracer]) -> None:
        self.config_paths = _write_configs(self.plan.configs, self.work / "configs")

    def probe_first_op(self) -> None:
        """What a fresh CLI process does before its command can begin: import
        ``vsckinetics.cli`` and load its config. Only the set-up probe calls
        this; the benchmark process itself never imports the package."""
        cli = importlib.import_module("vsckinetics.cli")
        for path in self.config_paths.values():
            cli.load_config(path)

    def prepare(self, ops: List[dict]) -> None:
        pass

    def _argv(self, op: dict, out: Path) -> List[str]:
        argv = []
        for arg in op["argv"]:
            if arg.startswith("{config:"):
                arg = str(self.config_paths[arg[len("{config:"):-1]])
            elif arg.startswith("{bundled:"):
                arg = str(bundled_config(self.root, arg[len("{bundled:"):-1]))
            argv.append(arg.replace("{out}", str(out)))
        return argv

    def execute(self, op: dict, tracer: Optional[tracing.Tracer]) -> Outcome:
        out = self.work / "out" / op["key"]
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        spans_file = self.work / "spans.json"
        if tracer is None:
            cmd = [sys.executable, "-m", "vsckinetics.cli", *self._argv(op, out)]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "cli_helper.py"), str(spans_file), *self._argv(op, out)]
            op_index = len(tracer.spans)
        c0, t0 = _children_cpu(), time.perf_counter()
        with span(tracer, "op"):
            try:
                proc = subprocess.run(cmd, cwd=self.work, env=self.env, capture_output=True,
                                      text=True, timeout=OP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc = None
        wall = time.perf_counter() - t0
        cpu = _children_cpu() - c0
        if tracer is not None:
            self._adopt(tracer, op_index, spans_file)
        if proc is None:
            return Outcome(wall, cpu, f"no exit within {OP_TIMEOUT_S} s")
        if proc.returncode != 0:
            last = proc.stderr.strip().splitlines()[-1:] or [""]
            return Outcome(wall, cpu, f"exit {proc.returncode}: {last[0]}")
        return Outcome(wall, cpu, self._check(op, proc.stdout))

    def _adopt(self, tracer: tracing.Tracer, op_index: int, spans_file: Path) -> None:
        try:
            child = json.loads(spans_file.read_text())
        except (OSError, ValueError):
            return  # the helper died before writing; the op failure is reported anyway
        finally:
            spans_file.unlink(missing_ok=True)
        op_span = tracer.spans[op_index]
        tracer.spans.append(tracing.Span(tracing.START_LAYER, op_span.start, child["t0"], op_index, tracer.op))
        tracer.spans.append(tracing.Span(tracing.EXIT_LAYER, child["t1"], op_span.end, op_index, tracer.op))
        tracer.adopt(child["spans"], op_index)
        for name, value in child["counts"].items():
            if name.endswith("_max"):
                tracer.maximum(name, value)
            else:
                tracer.add(name, value)
        self.modules_loaded = child["modules_loaded"]
        self.scipy_loaded = child["scipy_loaded"]

    def _check(self, op: dict, stdout: str) -> Optional[str]:
        kind = op["kind"]
        paths = [Path(line) for line in stdout.splitlines() if line.strip()]
        if kind == "criterion":
            err = checks.criterion_error(stdout, op["expect"])
            paths = []
        elif kind == "fcf-element":
            err = checks.fcf_element_error(stdout, op["expect"])
            paths = []
        elif kind == "fcf-factor":
            err = checks.fcf_factor_error(stdout)
            paths = []
        else:
            expected = {"simulate": 1, "compare": len(REGIMES), "sweep": VALUES_PER_SWEEP}[kind]
            try:
                runs = checks.exported_runs(paths)
            except (OSError, ValueError, KeyError, StopIteration) as exc:
                return f"unreadable output {paths}: {exc}"
            err = checks.runs_error(runs, expected)
            if not err and "reference" in op:
                for run in runs:
                    err = checks.reference_error(self.reference, f"{op['reference']}/{run['label']}",
                                                 run["fractions"])
                    if err:
                        break
        if err:
            return err
        digest = hashlib.sha256(stdout.encode())
        for path in paths:
            digest.update(path.read_bytes())
        first = self.digests.setdefault(op["key"], digest.hexdigest())
        if first != digest.hexdigest():
            return f"{op['key']}: output differs from the first identical command of this run"
        return None


def make(root: Path, work: Path, plan: Plan):
    return CliMix(root, work, plan) if plan.workload == "cli-mix" else SweepGrid(work)
