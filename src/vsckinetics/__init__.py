"""Deterministic kinetic simulator for nonadiabatic electron transfer under
vibrational strong coupling.

Two molecules share one cavity mode; a master equation over their composite
vibronic states (reactive Marcus-Levich-Jortner transitions, loss/gain, and
mode exchange) is propagated exactly from one eigendecomposition anchored on
the GTH stationary vector (Grassmann, Taksar and Heyman, Oper. Res. 33, 1985),
or, where eigenvectors fail, by a Taylor series that never subtracts (Xue and
Ye, Math. Comp. 82, 2013); numpy is the only dependency. The same reactions run
with the cavity absent ("bare"), perturbatively coupled ("weak"), or strongly
coupled ("vsc"); each regime works in one mode basis, the polariton eigenmodes
for "vsc" and the identity rotation otherwise.
"""

import os

# BLAS threads never pay on a few dozen states, and an OpenBLAS worker spins after
# it starts (0.12 s of CPU per CLI call on 2 cores); this must precede numpy's import.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .config import (
    ConfigError,
    SweepSpec,
    bundled_config_path,
    export,
    load_config,
    run_comparison,
    run_scenario,
    run_sweep,
)
from .propagate import NumericalError

__version__ = "0.1.0"
