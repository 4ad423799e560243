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

The package root binds ``config``, ``eigenmodes`` and ``rates`` as modules that run on first
attribute access and reads its exports from ``config`` on first use, so importing it, or
running a command that builds no model (``criterion``, ``fcf --lam``), loads no numpy.
"""

import importlib.util
import os
import sys
from types import ModuleType

# BLAS threads never pay on a few dozen states, and an OpenBLAS worker spins after
# it starts (0.12 s of CPU per CLI call on 2 cores); this must precede numpy's import.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .closed_forms import NumericalError  # noqa: E402  (numpy-free)

__version__ = "0.1.0"


def _lazy(name: str) -> ModuleType:
    """The package module ``name``, in ``sys.modules`` now and executed on its first attribute access."""
    full = f"{__name__}.{name}"
    if full in sys.modules:  # a reload of the package keeps the module every caller already holds
        return sys.modules[full]
    spec = importlib.util.find_spec(full)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    spec.loader.exec_module(module)
    return module


config, eigenmodes, rates = _lazy("config"), _lazy("eigenmodes"), _lazy("rates")

# the exports ``config`` owns, read from it on first access (PEP 562)
_CONFIG_EXPORTS = ("ConfigError", "SweepSpec", "bundled_config_path", "export", "load_config",
                   "run_comparison", "run_scenario", "run_sweep")


def __getattr__(name: str) -> object:
    if name not in _CONFIG_EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(config, name)


def __dir__() -> list:
    return sorted([*globals(), *_CONFIG_EXPORTS])
