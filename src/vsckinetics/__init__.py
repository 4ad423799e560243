"""Deterministic kinetic simulator for nonadiabatic electron transfer under
vibrational strong coupling.

Two molecules share one cavity mode; a master equation over their composite
vibronic states (reactive Marcus-Levich-Jortner transitions, loss/gain, and
mode exchange) is propagated exactly from one eigendecomposition: a symmetric
one anchored on the Boltzmann weights where the generator balances against
them, as every config-built one but a detuned weak one does, else a general one
anchored on the GTH stationary vector (Grassmann, Taksar and Heyman, Oper. Res.
33, 1985). Where eigenvectors fail, a Taylor series that never subtracts (Xue
and Ye, Math. Comp. 82, 2013) runs instead; numpy is the only dependency. The
same reactions run with the cavity absent ("bare"), perturbatively coupled
("weak"), or strongly coupled ("vsc"); each regime works in one mode basis
(``eigenmodes.mode_basis``), the polariton eigenmodes for "vsc" and the
identity rotation otherwise.

The package root resolves its exports on first use, so importing it, or running a
command that builds no model (``criterion``, ``fcf --lam``), loads no numpy.
"""

import importlib
import os

# BLAS threads never pay on a few dozen states, and an OpenBLAS worker spins after
# it starts (0.12 s of CPU per CLI call on 2 cores); this must precede numpy's import.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

# each export and the module that owns it, imported on first access (PEP 562)
_EXPORTS = {
    "ConfigError": "config",
    "SweepSpec": "config",
    "bundled_config_path": "config",
    "export": "config",
    "load_config": "config",
    "run_comparison": "config",
    "run_scenario": "config",
    "run_sweep": "config",
    "NumericalError": "closed_forms",
}


def __getattr__(name: str) -> object:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__() -> list:
    return sorted([*globals(), *_EXPORTS])
