"""Unit system and physical constants.

All quantities in this package live in a single canonical system:

    energy / frequency   cm^-1  (wavenumbers)
    time                 ps
    rates                ps^-1
    temperature          K

With these choices hbar = 1/(2*pi*c) in cm^-1*ps, and the conversion factor
from wavenumbers to angular frequency (rad/ps) is 2*pi*c, so the product
hbar * angular_per_wavenumber is exactly 1.
"""

from __future__ import annotations

import math

__all__ = [
    "SPEED_OF_LIGHT_CM_PER_PS",
    "ANGULAR_PER_WAVENUMBER",
    "HBAR",
    "KB",
    "wavenumber_to_angular",
    "thermal_energy",
]

# CODATA 2018. c is exact by SI definition.
SPEED_OF_LIGHT_CM_PER_PS = 0.0299792458
ANGULAR_PER_WAVENUMBER = 2.0 * math.pi * SPEED_OF_LIGHT_CM_PER_PS  # rad/ps per cm^-1
HBAR = 1.0 / ANGULAR_PER_WAVENUMBER  # cm^-1 * ps
KB = 0.6950348004  # cm^-1 / K


def wavenumber_to_angular(nu: float) -> float:
    """Convert a frequency in cm^-1 to angular frequency in rad/ps."""
    return nu * ANGULAR_PER_WAVENUMBER


def thermal_energy(temperature: float) -> float:
    """kB*T in cm^-1. Temperature must be strictly positive."""
    if not temperature > 0.0:
        raise ValueError(f"temperature must be > 0 K, got {temperature}")
    return KB * temperature
