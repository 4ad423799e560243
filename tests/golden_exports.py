"""Write or check the sha256 digests of the golden exports.

Usage, from any directory:

    python tests/golden_exports.py           # write every export, check its bytes against tests/golden/exports.json
    python tests/golden_exports.py --write   # rewrite the table on this build

The golden exports are, in CSV and in JSON, a ``simulate`` of every bundled
reaction under every regime at its own omega_c and at 1800 and 2150 cm^-1, the
three-regime compare of every reaction, and a kappa, gamma, eta and g sweep of
every reaction under every regime: 210 files. Their bits depend on numpy's
LAPACK and BLAS, so the table records the Python, numpy and platform that wrote
it, and the bytes are pinned only on that build. Elsewhere the check still writes
every export, so a run that raises fails it, but it only reports which part of
the build differs and how many digests do, and exits 0. Needs only the standard
library and vsckinetics with its numpy, so it runs where the test extras are not
installed.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from vsckinetics import SweepSpec, bundled_config_path, export, load_config, run_comparison, run_scenario, run_sweep

TABLE = Path(__file__).resolve().with_name("golden") / "exports.json"
REACTIONS = ("reaction1", "reaction2", "reaction3")
REGIMES = ("bare", "weak", "vsc")
OMEGA_C = (None, 1800.0, 2150.0)  # None keeps the bundled cavity frequency
SWEEPS = {"kappa": (0.0, 0.3, 3.0), "gamma": (0.0, 0.01, 0.5), "eta": (0.0, 1e-3, 1e-2), "g": (0.0, 5.0, 60.0)}


def build() -> Dict[str, str]:
    """What the bits of an export depend on beyond the source: Python, numpy and the platform."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": f"{platform.system()}-{platform.machine()}",
    }


def build_mismatch(recorded: Dict[str, str]) -> Optional[str]:
    """How this build differs from ``recorded``, or None if it is the same."""
    here = build()
    differences = [f"{key} {here.get(key)} here, {value} in the table" for key, value in recorded.items() if here.get(key) != value]
    return "; ".join(differences) or None


def _runs() -> Iterator[Tuple[str, List]]:
    for reaction in REACTIONS:
        config = load_config(bundled_config_path(reaction))
        for kind in REGIMES:
            variant = replace(config, regime_kind=kind)
            for omega_c in OMEGA_C:
                cavity = variant.cavity if omega_c is None else replace(variant.cavity, omega_c=omega_c)
                name = "bundled" if omega_c is None else f"{omega_c:g}"
                yield f"simulate/{reaction}/{kind}/omega_c={name}", [run_scenario(replace(variant, cavity=cavity))]
            for parameter, values in SWEEPS.items():
                yield f"sweep/{reaction}/{kind}/{parameter}", run_sweep(SweepSpec(parameter, values, variant))
        yield f"compare/{reaction}", run_comparison(config, list(REGIMES))


def digests() -> Dict[str, str]:
    """The sha256 of every golden export file, keyed by run set and file name."""
    table = {}
    with tempfile.TemporaryDirectory() as folder:
        for key, results in _runs():
            for fmt in ("csv", "json"):
                for path in export(results, fmt, Path(folder) / f"out.{fmt}"):
                    table[f"{key}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
                    path.unlink()
    return table


def load_table() -> Dict:
    return json.loads(TABLE.read_text())


def main(argv: List[str]) -> int:
    if argv == ["--write"]:
        TABLE.parent.mkdir(exist_ok=True)
        TABLE.write_text(json.dumps({"build": build(), "digests": digests()}, indent=1, sort_keys=True) + "\n")
        print(f"wrote {TABLE}")
        return 0
    if argv:
        print(__doc__, file=sys.stderr)
        return 2
    table = load_table()
    mismatch = build_mismatch(table["build"])
    found = digests()
    wrong = sorted(key for key in table["digests"].keys() | found.keys() if table["digests"].get(key) != found.get(key))
    if mismatch:
        print(f"bytes not pinned: {mismatch}; wrote {len(found)} exports, {len(wrong)} digests differ")
        return 0
    print(f"bytes pinned: {len(found) - len(wrong)} of {len(table['digests'])} exports match", *wrong, sep="\n")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
