"""Regenerate bench/reference/species_fractions.json.

Usage, from the root of a checkout:

    python3 bench/make_reference.py

Runs the three bundled reactions under bare, weak and vsc on their default
400-point grid and stores the normalized species fractions at every tenth
grid point and the last one. The benchmark compares the cli-mix ``compare``
outputs against this file within 1e-9 absolute, which holds across
propagators that agree to that tolerance and does not pin the last digits
of any one of them.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

from inputs import REACTIONS, REGIMES, bundled_config

OUT = Path(__file__).resolve().parent / "reference" / "species_fractions.json"
STRIDE = 10


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    from vsckinetics import config

    cases = {}
    grid_points = None
    for reaction in REACTIONS:
        base = config.load_config(bundled_config(root, reaction))
        for regime in REGIMES:
            traj = config.run_scenario(replace(base, regime_kind=regime)).trajectory
            grid_points = len(traj.grid.points)
            indices = list(range(0, grid_points, STRIDE)) + [grid_points - 1]
            cases[f"{reaction}/{regime}"] = {
                label: [float(traj.normalized_series(label)[i]) for i in indices]
                for label in traj.species_labels
            }
    OUT.parent.mkdir(exist_ok=True)
    payload = {"grid_points": grid_points, "indices": indices, "cases": cases}
    OUT.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
