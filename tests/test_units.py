"""Unit system: pinned constants and conversions."""

import math

import pytest

from vsckinetics.units import (
    ANGULAR_PER_WAVENUMBER,
    HBAR,
    KB,
    SPEED_OF_LIGHT_CM_PER_PS,
    thermal_energy,
    wavenumber_to_angular,
)


def test_pinned_constants():
    assert SPEED_OF_LIGHT_CM_PER_PS == 0.0299792458
    assert KB == 0.6950348004
    assert ANGULAR_PER_WAVENUMBER == pytest.approx(0.1883651567308853, rel=1e-15)
    assert HBAR == pytest.approx(5.3088374588761456, rel=1e-15)


def test_hbar_angular_product_is_exactly_one():
    # the canonical system is chosen so a quantum of omega (cm^-1) has energy
    # omega (cm^-1): hbar and the angular conversion are exact inverses
    assert HBAR * ANGULAR_PER_WAVENUMBER == 1.0


def test_conversions_roundtrip():
    assert wavenumber_to_angular(2000.0) == pytest.approx(376.7303134617706, rel=1e-14)
    assert wavenumber_to_angular(0.0) == 0.0


def test_thermal_energy():
    assert thermal_energy(298.0) == pytest.approx(207.1203705192, rel=1e-12)
    assert thermal_energy(1.0) == KB
    with pytest.raises(ValueError):
        thermal_energy(0.0)
    with pytest.raises(ValueError):
        thermal_energy(-5.0)

