"""Deterministic kinetic simulator for nonadiabatic electron transfer under
vibrational strong coupling.

Two molecules share one cavity mode; a master equation over their composite
vibronic states (reactive Marcus-Levich-Jortner transitions, loss/gain, and
mode exchange) is propagated exactly by matrix exponentials. The same
reactions can be run with the cavity absent ("bare"), perturbatively coupled
("weak"), or strongly coupled ("vsc"); each regime works in one mode basis,
the polariton eigenmodes for "vsc" and the identity rotation otherwise.
"""

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
