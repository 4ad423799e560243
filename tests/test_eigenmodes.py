"""Eigenmode structure: polariton frequencies, coefficients, displacements, energies."""

import math

import numpy as np
import pytest

from vsckinetics.eigenmodes import (
    CavitySpec,
    bare_mode_basis,
    build_mode_basis,
    mode_displacements,
    state_energies,
)
from vsckinetics.states import ReactionNetwork, SpeciesSpec

G_VSC = 42.426406871192846  # 0.03 * 2000 / sqrt(2)
OMEGA_V = 2000.0


def resonant_basis(g=G_VSC, kappa=1.0):
    return build_mode_basis(CavitySpec(omega_c=OMEGA_V, g=g, kappa=kappa), OMEGA_V)


def r1_network():
    return ReactionNetwork(
        species=(
            SpeciesSpec("A", 0.0, 0.0),
            SpeciesSpec("B", -1200.0, 1.5),
        )
    )


def test_resonant_frequencies_and_angle():
    basis = resonant_basis()
    # Rabi splitting 2*g*sqrt(2) = 0.06 * omega_v = 120 cm^-1
    assert basis.frequency("+") == pytest.approx(2060.0, abs=1e-9)
    assert basis.frequency("-") == pytest.approx(1940.0, abs=1e-9)
    assert basis.frequency("d") == OMEGA_V
    assert basis.mixing_angle == pytest.approx(math.pi / 4, rel=1e-14)


def test_frequency_sum_rule_and_bracketing():
    for detuning in (-300.0, -50.0, 0.0, 50.0, 300.0):
        cavity = CavitySpec(omega_c=OMEGA_V + detuning, g=G_VSC, kappa=1.0)
        basis = build_mode_basis(cavity, OMEGA_V)
        wp, wm = basis.frequency("+"), basis.frequency("-")
        assert wp + wm == pytest.approx(cavity.omega_c + OMEGA_V, rel=1e-13)
        assert wm < min(cavity.omega_c, OMEGA_V) <= max(cavity.omega_c, OMEGA_V) < wp


def test_coefficients_match_dense_diagonalization():
    # independent route: numpy.eigh of the bilinear block
    for detuning in (-250.0, 0.0, 100.0):
        omega_c = OMEGA_V + detuning
        cavity = CavitySpec(omega_c=omega_c, g=G_VSC, kappa=1.0)
        basis = build_mode_basis(cavity, OMEGA_V)
        H = np.array(
            [
                [omega_c, G_VSC, G_VSC],
                [G_VSC, OMEGA_V, 0.0],
                [G_VSC, 0.0, OMEGA_V],
            ]
        )
        C = np.array(basis.coefficients)
        assert np.abs(C @ C.T - np.eye(3)).max() < 1e-12  # orthonormal rows
        for row, omega_q in zip(C, basis.frequencies):
            assert np.abs(H @ row - omega_q * row).max() < 1e-9
        # dark row convention is pinned
        assert basis.coefficient("d", 0) == 0.0
        assert basis.coefficient("d", 1) == pytest.approx(1 / math.sqrt(2), rel=1e-15)
        assert basis.coefficient("d", 2) == pytest.approx(-1 / math.sqrt(2), rel=1e-15)


def test_resonant_coefficients():
    basis = resonant_basis()
    s = 1 / math.sqrt(2)
    assert basis.coefficient("+", 0) == pytest.approx(s, rel=1e-14)
    assert basis.coefficient("+", 1) == pytest.approx(0.5, rel=1e-14)
    assert basis.coefficient("-", 0) == pytest.approx(s, rel=1e-14)
    assert basis.coefficient("-", 1) == pytest.approx(-0.5, rel=1e-14)


def test_decoupled_limit():
    # g = 0 keeps an orthonormal basis with a photon-like "+" mode at omega_c
    basis = build_mode_basis(CavitySpec(omega_c=2100.0, g=0.0, kappa=1.0), OMEGA_V)
    assert basis.frequency("+") == pytest.approx(2100.0)
    assert basis.frequency("-") == pytest.approx(OMEGA_V)
    assert basis.coefficient("+", 0) == pytest.approx(1.0)
    assert basis.mixing_angle == 0.0


def test_cavity_spec_validation():
    with pytest.raises(ValueError):
        CavitySpec(omega_c=0.0, g=1.0, kappa=1.0)
    with pytest.raises(ValueError):
        CavitySpec(omega_c=2000.0, g=-1.0, kappa=1.0)
    with pytest.raises(ValueError):
        CavitySpec(omega_c=2000.0, g=1.0, kappa=-0.1)
    with pytest.raises(ValueError):
        build_mode_basis(CavitySpec(omega_c=2000.0, g=1.0, kappa=1.0), 0.0)
    with pytest.raises(ValueError):
        bare_mode_basis(CavitySpec(omega_c=2000.0, g=1.0, kappa=1.0), 0.0)


def test_bare_basis_is_identity_rotation():
    basis = bare_mode_basis(CavitySpec(omega_c=2100.0, g=42.0, kappa=1.0), OMEGA_V)
    assert basis.labels == ("c", "v1", "v2")
    assert basis.frequencies == (2100.0, OMEGA_V, OMEGA_V)
    assert np.array_equal(np.array(basis.coefficients), np.eye(3))
    assert basis.mixing_angle == 0.0
    # each molecule displaces only its own vibration, by exactly lambda
    assert mode_displacements(basis, 1, 1.5) == (0.0, 1.5, 0.0)
    assert mode_displacements(basis, 2, 1.5) == (0.0, 0.0, 1.5)


def test_displacement_redistribution():
    basis = resonant_basis()
    d, p, m = (basis.labels.index(q) for q in ("d", "+", "-"))
    # molecule 1 in species B: c_qi * (omega_v / omega_q) * lambda_B
    mol1 = mode_displacements(basis, 1, 1.5)
    assert mol1[d] == pytest.approx(1.5 / math.sqrt(2), rel=1e-14)
    assert mol1[p] == pytest.approx(0.5 * (2000.0 / 2060.0) * 1.5, rel=1e-13)
    assert mol1[m] == pytest.approx(-0.5 * (2000.0 / 1940.0) * 1.5, rel=1e-13)
    # dark-mode contributions of the two molecules have opposite sign
    mol2 = mode_displacements(basis, 2, 1.5)
    assert mol2[d] == pytest.approx(-1.5 / math.sqrt(2), rel=1e-14)
    # an undisplaced species leaves every mode in place
    assert mode_displacements(basis, 1, 0.0) == (0.0, 0.0, 0.0)
    # symmetric (B,B) configuration leaves the dark mode undisplaced
    assert mol1[d] + mol2[d] == pytest.approx(0.0, abs=1e-15)
    for bad in (0, 3):
        with pytest.raises(ValueError):
            mode_displacements(basis, bad, 1.5)


# state_energies axes: species of molecule 1 and 2 (A = 0, B = 1), then the
# pattern: 0 ground, 1..3 one quantum in the basis modes in order
def test_composite_energy_bare():
    network = r1_network()
    basis = bare_mode_basis(CavitySpec(omega_c=2000.0, g=0.0, kappa=1.0), OMEGA_V)
    energies = state_energies(network, basis)
    assert energies.shape == (2, 2, 4)
    assert energies[0, 0, 0] == 0.0
    assert energies[1, 0, 2] == pytest.approx(800.0)  # B.A|v1
    assert energies[1, 1, 1] == pytest.approx(-400.0)  # B.B|c
    assert energies[0, 1, 3] == pytest.approx(800.0)  # A.B|v2
    # no polaron shift: each vibration is displaced along its own coordinate
    assert energies[1, 1, 0] == -2400.0


def test_composite_energy_vsc_polaron_shift():
    network = r1_network()
    energies = state_energies(network, resonant_basis())
    # frozen values from independent evaluation of the shift formula
    assert energies[1, 0, 0] == pytest.approx(-1200.0 - 2.0268241417265926, rel=1e-12)
    assert energies[1, 1, 0] == pytest.approx(-2400.0 - 8.107296566909099, rel=1e-12)
    # undisplaced configuration has no shift; quanta add eigenmode energies
    assert energies[0, 0, 0] == 0.0
    assert energies[0, 0, 1] == pytest.approx(2060.0)  # A.A|+
    assert energies[0, 0, 3] == pytest.approx(2000.0)  # A.A|d


def test_vsc_energy_approaches_bare_as_g_vanishes():
    network = r1_network()
    for g in (1.0, 0.1, 0.01):
        basis = build_mode_basis(CavitySpec(omega_c=OMEGA_V, g=g, kappa=1.0), OMEGA_V)
        e = state_energies(network, basis)[1, 0, 0]
        assert abs(e - (-1200.0)) < 2e-3 * g * g  # polaron shift dies off quadratically
