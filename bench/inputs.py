"""Seeded inputs for the two workloads.

Everything here is a pure function of the seed: config dicts derived from
the bundled reactions, sweep value lists and CLI argv lists. The package
only ever sees these generated inputs. Standard library only.

Each workload runs in whole *cycles*. A cycle visits a fixed, balanced set
of strata (reaction x regime x family), and grid lengths are spread evenly
over a range with a seeded offset, so every seed does nearly the same amount
of work while parameter values, grid lengths and op order change. Lengths
vary continuously, so latency percentiles do not sit on a gap between
discrete op sizes. The seed fixes a few kinds of cycle, and a run repeats
them in turn, so a kind's repetitions all do the same work.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path
from typing import Dict, List

REACTIONS = ("reaction1", "reaction2", "reaction3")
REGIMES = ("bare", "weak", "vsc")
FAMILIES = ("kappa", "eta", "gamma", "g")

# Log-uniform ranges in canonical units (ps^-1, dimensionless, ps^-1, cm^-1).
# Each sweep spans at least MIN_DECADES of its range, so ||K t|| and the
# number of squarings inside expm vary from op to op.
FAMILY_RANGES = {
    "kappa": (1e-3, 30.0),
    "eta": (1e-5, 0.1),
    "gamma": (1e-4, 1.0),
    "g": (0.05, 200.0),
}
MIN_DECADES = 3.0

VALUES_PER_SWEEP = 3
# sweep-grid: one cycle is reaction x regime x family = 36 run_sweep calls;
# the four families of a (reaction, regime) pair share out four grid lengths
# spread evenly over GRID_POINTS.
GRID_POINTS = (150, 450)
GRID_START, GRID_END = 0.1, 5.0e4  # ps, the bundled default
# sweep-grid cycle k scales its sweep values and grid end by 1 + k * CYCLE_STEP:
# the same work as the earlier cycles of its kind, but never an input the
# package has seen before.
CYCLE_STEP = 1e-6
FORMATS = ("csv", "json")

WORKLOADS = ("cli-mix", "sweep-grid")
# Kinds of cycle per workload; cycle k is of kind k % CYCLE_KINDS. cli-mix
# runs its commands in the seeded output format, then in the other one.
# sweep-grid draws four cycles, so a run's work does not hang on one draw of
# the heavy-tailed op costs: one drawn cycle varies by about 10% from seed
# to seed.
CYCLE_KINDS = {"cli-mix": 2, "sweep-grid": 4}


def bundled_config(root: Path, reaction: str) -> Path:
    return root / "src" / "vsckinetics" / "configs" / f"{reaction}.json"


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _tidy(x: float) -> float:
    return float(f"{x:.6g}")


def family_values(rng: random.Random, family: str, n: int, start_at_zero: bool) -> List[float]:
    """``n`` log-spaced values spanning >= MIN_DECADES, optionally led by 0."""
    lo, hi = FAMILY_RANGES[family]
    room = math.log10(hi / lo)
    span = rng.uniform(MIN_DECADES, room)
    first = rng.uniform(math.log10(lo), math.log10(hi) - span)
    m = n - 1 if start_at_zero else n
    values = [_tidy(10.0 ** (first + span * k / (m - 1))) for k in range(m)]
    return ([0.0] if start_at_zero else []) + values


def _sweep_config(raw: dict, reaction: str, regime: str, points: int, scale: float) -> dict:
    grid = {"spacing": "log", "start": GRID_START, "end": GRID_END * scale, "points": points}
    return dict(raw, name=f"{reaction}_{regime}_{points}", regime=regime, grid=grid)


def spread_lengths(rng: random.Random, bounds, n: int) -> List[int]:
    """``n`` grid lengths, one in each of ``n`` equal slices of ``bounds``,
    all at the same seeded offset within their slice, in seeded order."""
    lo, hi = bounds
    offset = rng.random()
    lengths = [int(lo + (k + offset) * (hi - lo) / n) for k in range(n)]
    rng.shuffle(lengths)
    return lengths


def _variant(raw: dict, rng: random.Random, name: str, regime: str) -> dict:
    """A bundled reaction with seeded cavity and bath parameters."""
    cavity = dict(raw["cavity"])
    bath = dict(raw["bath"])
    cavity["kappa"] = _tidy(cavity["kappa"] * _log_uniform(rng, 0.3, 3.0))
    cavity["g"] = _tidy(cavity["g"] * _log_uniform(rng, 0.3, 3.0))
    bath["gamma"] = _tidy(bath["gamma"] * _log_uniform(rng, 0.3, 3.0))
    bath["eta"] = _tidy(bath["eta"] * _log_uniform(rng, 0.3, 3.0))
    bath["temperature"] = _tidy(rng.uniform(260.0, 340.0))
    return dict(raw, name=name, regime=regime, cavity=cavity, bath=bath)


class Plan:
    """Seeded inputs of one workload: config dicts and a cycle of ops."""

    def __init__(self, workload: str, seed: int, root: Path) -> None:
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
        self.workload = workload
        self.seed = seed
        self.kinds = CYCLE_KINDS[workload]
        self.configs: Dict[str, dict] = {}  # cli-mix only; sweep-grid ops carry their own
        if workload == "cli-mix":
            self.configs, self._cli_ops = _cli_plan(root, random.Random(seed))
        else:
            self._bundled = {r: json.loads(bundled_config(root, r).read_text()) for r in REACTIONS}

    def cycle(self, k: int) -> List[dict]:
        """The ops of cycle ``k``, which repeats the work of cycle
        ``k - self.kinds``. cli-mix flips the output format on odd cycles,
        so every command runs in both formats and identical commands recur
        two cycles apart. sweep-grid ops carry their config dicts, scaled by
        1 + k * CYCLE_STEP."""
        if self.workload == "cli-mix":
            return [_cli_op(op, flip=k % 2 == 1) for op in self._cli_ops]
        rng = random.Random(self.seed * 1_000_003 + k % self.kinds)
        return _sweep_grid_cycle(rng, self._bundled, 1.0 + k * CYCLE_STEP)

    def size(self) -> dict:
        """Per-workload input size for the provenance block."""
        if self.workload == "cli-mix":
            kinds: Dict[str, int] = {}
            for op in self._cli_ops:
                kinds[op["kind"]] = kinds.get(op["kind"], 0) + 1
            return {"ops_per_cycle": len(self._cli_ops), "cycle_kinds": self.kinds, "op_kinds": kinds,
                    "grid_points": 400, "state_counts": [16, 36],
                    "values_per_sweep": VALUES_PER_SWEEP}
        return {"ops_per_cycle": len(REACTIONS) * len(REGIMES) * len(FAMILIES), "cycle_kinds": self.kinds,
                "values_per_sweep": VALUES_PER_SWEEP,
                "grid_points_range": list(GRID_POINTS),
                "grid_end_ps": GRID_END, "state_counts": [16, 36]}


def _sweep_grid_cycle(rng: random.Random, bundled: Dict[str, dict], scale: float) -> List[dict]:
    ops = []
    for reaction in REACTIONS:
        for regime in REGIMES:
            lengths = spread_lengths(rng, GRID_POINTS, len(FAMILIES))
            for family, n in zip(FAMILIES, lengths):
                # g scans start at 0, as a user's would; scaling keeps the 0.
                values = family_values(rng, family, VALUES_PER_SWEEP, start_at_zero=family == "g")
                ops.append({"config": _sweep_config(bundled[reaction], reaction, regime, n, scale),
                            "regime": regime, "family": family, "values": [v * scale for v in values]})
    rng.shuffle(ops)
    return ops


def _cli_op(template: dict, flip: bool) -> dict:
    """Fill in the output format of a CLI op, the other one when ``flip``."""
    op = dict(template)
    if "format" in op:
        fmt = FORMATS[(FORMATS.index(op.pop("format")) + flip) % 2]
        op["key"] = f"{op['key']}-{fmt}"
        op["argv"] = [arg.replace("{fmt}", fmt) for arg in op["argv"]]
    return op


def _cli_plan(root: Path, rng: random.Random):
    """One cycle of CLI commands. ``{out}`` in an argv is replaced by the
    op's output directory, ``{config:<name>}`` and ``{bundled:<name>}`` by a
    config file path."""
    configs = {}
    regimes = list(REGIMES)
    rng.shuffle(regimes)
    for reaction, regime in zip(REACTIONS, regimes):
        raw = json.loads(bundled_config(root, reaction).read_text())
        configs[f"{reaction}_variant"] = _variant(raw, rng, f"{reaction}_variant", regime)

    def fmt() -> str:
        return rng.choice(FORMATS)

    ops = []
    for reaction in REACTIONS:
        f = fmt()
        ops.append({"kind": "compare", "key": f"compare-{reaction}", "reference": reaction, "format": f,
                    "argv": ["compare", "--config", f"{{bundled:{reaction}}}",
                             "--regimes", ",".join(REGIMES), "--format", "{fmt}",
                             "--out", "{out}/out.{fmt}"]})
    for reaction in REACTIONS:
        f = fmt()
        ops.append({"kind": "simulate", "key": f"simulate-{reaction}", "format": f,
                    "argv": ["simulate", "--config", f"{{config:{reaction}_variant}}", "--format", "{fmt}",
                             "--out", "{out}/out.{fmt}"]})
    reaction = rng.choice(REACTIONS)
    family = rng.choice(FAMILIES)
    values = family_values(rng, family, VALUES_PER_SWEEP, start_at_zero=False)
    f = fmt()
    ops.append({"kind": "sweep", "key": "sweep", "format": f,
                "argv": ["sweep", "--config", f"{{config:{reaction}_variant}}", "--param", family,
                         "--values", ",".join(repr(v) for v in values), "--format", "{fmt}",
                         "--out", "{out}/out.{fmt}"]})
    crit = {"epsilon": _tidy(_log_uniform(rng, 0.01, 10.0)),
            "n-molecules": _tidy(_log_uniform(rng, 1.0, 1e8)),
            "k-r": _tidy(_log_uniform(rng, 1e-3, 10.0)),
            "k-d": _tidy(_log_uniform(rng, 1e-3, 10.0)),
            "k-f": _tidy(_log_uniform(rng, 1e-3, 10.0))}
    argv = ["criterion"]
    for flag, value in crit.items():
        argv += [f"--{flag}", repr(value)]
    ops.append({"kind": "criterion", "key": "criterion", "expect": crit, "argv": argv})
    lam = _tidy(rng.uniform(0.2, 3.0))
    m_to = rng.randrange(0, 4)
    ops.append({"kind": "fcf-element", "key": "fcf-element", "expect": {"lam": lam, "m_to": m_to},
                "argv": ["fcf", "--lam", repr(lam), "--m-from", "0", "--m-to", str(m_to)]})
    reaction = rng.choice(REACTIONS)
    pair = ("B", "C") if reaction == "reaction3" and rng.random() < 0.5 else ("A", "B")
    patterns = ["0,0,0", "1,0,0", "0,1,0", "0,0,1"]
    ops.append({"kind": "fcf-factor", "key": "fcf-factor",
                "argv": ["fcf", "--config", f"{{config:{reaction}_variant}}",
                         "--regime", rng.choice(("bare", "vsc")),
                         "--molecule", str(rng.choice((1, 2))),
                         "--species-from", pair[0], "--species-to", pair[1],
                         "--occ-from", rng.choice(patterns), "--occ-to", rng.choice(patterns)]})
    rng.shuffle(ops)
    return configs, ops
