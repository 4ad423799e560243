"""Correctness checks on every op's output. Standard library only.

Each check returns ``None`` when the output is right and a one-line reason
otherwise; the caller counts a reason as a failed op and carries on.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Dict, List, Optional, Sequence

SUM_TOL = 1e-9  # |sum_i p_i(t) - 1|
NEG_TOL = -1e-10  # min_i p_i(t)
REFERENCE_TOL = 1e-9  # absolute, species fractions; loose enough not to pin expm's last digits
REFERENCE_FILE = Path(__file__).resolve().parent / "reference" / "species_fractions.json"


def population_error(rows) -> Optional[str]:
    """Rows of state populations (a 2-D array or a list of lists)."""
    if hasattr(rows, "ndim"):
        if rows.ndim != 2 or rows.shape[0] == 0:
            return f"population array has shape {rows.shape}"
        sums = rows.sum(axis=1)
        if not bool((abs(sums - 1.0) <= SUM_TOL).all()):
            return f"populations sum to 1 only within {float(abs(sums - 1.0).max()):.3e}"
        low = float(rows.min())
    else:
        if not rows:
            return "no population rows"
        leak = max(abs(math.fsum(r) - 1.0) for r in rows)
        if not leak <= SUM_TOL:
            return f"populations sum to 1 only within {leak:.3e}"
        low = min(min(r) for r in rows)
    if not low >= NEG_TOL:
        return f"population went to {low:.3e}"
    return None


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def reference_error(reference: dict, case: str, fractions: Dict[str, Sequence[float]]) -> Optional[str]:
    """Species fractions of a bundled reaction/regime against the reference."""
    expected = reference["cases"].get(case)
    if expected is None:
        return f"no reference for {case}"
    if set(expected) != set(fractions):
        return f"{case}: species {sorted(fractions)} differ from reference {sorted(expected)}"
    for label, values in expected.items():
        got = fractions[label]
        if len(got) != reference["grid_points"]:
            return f"{case}: {len(got)} grid points, reference has {reference['grid_points']}"
        for index, want in zip(reference["indices"], values):
            if not abs(got[index] - want) <= REFERENCE_TOL:
                return f"{case}: frac_{label}[{index}] = {got[index]!r}, reference {want!r}"
    return None


def read_csv_output(path: Path):
    """(state population rows, species fractions) of one exported CSV run."""
    with path.open(newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    reader = csv.reader(lines)
    header = next(reader)
    p_cols = [i for i, h in enumerate(header) if h.startswith("p[")]
    f_cols = {h[len("frac_"):]: i for i, h in enumerate(header) if h.startswith("frac_")}
    rows = [[float(x) for x in row] for row in reader]
    populations = [[row[i] for i in p_cols] for row in rows]
    fractions = {label: [row[i] for row in rows] for label, i in f_cols.items()}
    return populations, fractions


def read_json_output(path: Path) -> List[dict]:
    """Runs of an exported JSON file: label, populations and species fractions."""
    payload = json.loads(path.read_text())
    return [
        {
            "label": run["label"],
            "populations": run["state_populations"],
            "fractions": {lab: s["normalized"] for lab, s in run["species"].items()},
        }
        for run in payload["runs"]
    ]


def exported_runs(paths: Sequence[Path]) -> List[dict]:
    """Runs in written files; a CSV run is labelled by its file-name suffix."""
    runs = []
    for path in paths:
        if path.suffix == ".json":
            runs.extend(read_json_output(path))
        else:
            populations, fractions = read_csv_output(path)
            label = path.stem.split("_", 1)[1] if "_" in path.stem else path.stem
            runs.append({"label": label, "populations": populations, "fractions": fractions})
    return runs


def runs_error(runs: Sequence[dict], expected_count: int) -> Optional[str]:
    if len(runs) != expected_count:
        return f"{len(runs)} runs written, expected {expected_count}"
    for run in runs:
        err = population_error(run["populations"])
        if err:
            return f"{run['label']}: {err}"
    return None


def criterion_error(stdout: str, expect: dict) -> Optional[str]:
    """lhs = epsilon/N, rhs = k_d/(k_r+k_d), modifiable = lhs >= rhs."""
    fields = {}
    for line in stdout.splitlines():
        key, _, value = line.partition("=")
        fields[key.split("(")[0].strip()] = value.strip().split(" ")[0]
    try:
        lhs, rhs = float(fields["lhs"]), float(fields["rhs"])
        k_ssa = float(fields["k_ssa"])
        modifiable = fields["modifiable"] == "True"
    except (KeyError, ValueError):
        return f"unparsable criterion output {stdout!r}"
    want_lhs = expect["epsilon"] / expect["n-molecules"]
    want_rhs = expect["k-d"] / (expect["k-r"] + expect["k-d"])
    if not (math.isclose(lhs, want_lhs, rel_tol=1e-12) and math.isclose(rhs, want_rhs, rel_tol=1e-12)):
        return f"criterion lhs/rhs {lhs!r}/{rhs!r}, expected {want_lhs!r}/{want_rhs!r}"
    if not math.isclose(k_ssa, expect["k-f"] * want_rhs, rel_tol=1e-12):
        return f"criterion k_ssa {k_ssa!r}, expected {expect['k-f'] * want_rhs!r}"
    if modifiable != (lhs >= rhs):
        return f"criterion modifiable={modifiable} but lhs={lhs!r}, rhs={rhs!r}"
    return None


def fcf_element_error(stdout: str, expect: dict) -> Optional[str]:
    """<m|D(lam)|0> = exp(-lam^2/2) lam^m / sqrt(m!)."""
    try:
        value = float(stdout.splitlines()[0].rsplit("=", 1)[1])
    except (IndexError, ValueError):
        return f"unparsable fcf output {stdout!r}"
    lam, m = expect["lam"], expect["m_to"]
    want = math.exp(-0.5 * lam * lam) * lam**m / math.sqrt(math.factorial(m))
    if not math.isclose(value, want, rel_tol=1e-12, abs_tol=1e-15):
        return f"<{m}|D({lam})|0> = {value!r}, expected {want!r}"
    return None


def fcf_factor_error(stdout: str) -> Optional[str]:
    """A squared Franck-Condon factor lies in [0, 1]."""
    try:
        value = float(stdout.strip().rsplit("=", 1)[1])
    except (IndexError, ValueError):
        return f"unparsable fcf output {stdout!r}"
    if not 0.0 <= value <= 1.0:
        return f"|FC|^2 = {value!r} outside [0, 1]"
    return None
