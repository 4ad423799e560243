"""Eigenmode structure: polariton frequencies, coefficients, displacements, energies."""

import math
import re

import numpy as np
import pytest

from vsckinetics.eigenmodes import (
    CavitySpec,
    ModeBasis,
    build_mode_basis,
    mode_basis,
    mode_displacements,
)
from vsckinetics.states import ReactionNetwork, SpeciesSpec, enumerate_states

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
    assert basis.labels == ("+", "-", "d")
    # Rabi splitting 2*g*sqrt(2) = 0.06 * omega_v = 120 cm^-1
    plus, minus, dark = basis.frequencies
    assert plus == pytest.approx(2060.0, abs=1e-9)
    assert minus == pytest.approx(1940.0, abs=1e-9)
    assert dark == OMEGA_V
    # mixing angle pi/4: the cavity amplitude of "+" is cos(pi/4)
    assert basis.coefficients[0][0] == pytest.approx(math.cos(math.pi / 4), rel=1e-14)


def test_frequency_sum_rule_and_bracketing():
    for detuning in (-300.0, -50.0, 0.0, 50.0, 300.0):
        cavity = CavitySpec(omega_c=OMEGA_V + detuning, g=G_VSC, kappa=1.0)
        basis = build_mode_basis(cavity, OMEGA_V)
        wp, wm, _ = basis.frequencies
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
        dark = basis.coefficients[2]
        assert dark[0] == 0.0
        assert dark[1] == pytest.approx(1 / math.sqrt(2), rel=1e-15)
        assert dark[2] == pytest.approx(-1 / math.sqrt(2), rel=1e-15)


def test_resonant_coefficients():
    basis = resonant_basis()
    s = 1 / math.sqrt(2)
    plus, minus, _ = basis.coefficients
    assert plus[0] == pytest.approx(s, rel=1e-14)
    assert plus[1] == pytest.approx(0.5, rel=1e-14)
    assert minus[0] == pytest.approx(s, rel=1e-14)
    assert minus[1] == pytest.approx(-0.5, rel=1e-14)


def test_decoupled_limit():
    # g = 0 keeps an orthonormal basis with a photon-like "+" mode at omega_c
    basis = build_mode_basis(CavitySpec(omega_c=2100.0, g=0.0, kappa=1.0), OMEGA_V)
    assert basis.frequencies[0] == pytest.approx(2100.0)
    assert basis.frequencies[1] == pytest.approx(OMEGA_V)
    assert basis.coefficients[0][0] == pytest.approx(1.0)
    # mixing angle 0: "+" is the bare cavity mode exactly
    assert basis.coefficients[0] == (1.0, 0.0, 0.0)


def test_g_must_keep_the_lower_polariton_above_zero():
    # omega_+ omega_- = omega_c omega_v - 2 g^2, so omega_- reaches 0 at g = sqrt(omega_c omega_v / 2)
    omega_c = 2100.0
    bound = math.sqrt(0.5 * omega_c * OMEGA_V)
    below = build_mode_basis(CavitySpec(omega_c=omega_c, g=bound * (1.0 - 1e-9), kappa=1.0), OMEGA_V)
    assert 0.0 < below.frequencies[1] < 1e-4
    for g in (bound * (1.0 + 1e-12), 2.0 * bound, 1e154, 1e300):  # 2 g^2 overflows to inf past 1e154
        cavity = CavitySpec(omega_c=omega_c, g=g, kappa=1.0)
        with pytest.raises(ValueError, match=rf"g must be < .* = {bound:.1f} cm\^-1 under vsc, got {re.escape(repr(g))}"):
            build_mode_basis(cavity, OMEGA_V)
        with pytest.raises(ValueError, match="g must be < "):
            mode_basis("vsc", cavity, OMEGA_V)
        assert mode_basis("bare", cavity, OMEGA_V).frequencies == (omega_c, OMEGA_V, OMEGA_V)


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
        mode_basis("bare", CavitySpec(omega_c=2000.0, g=1.0, kappa=1.0), 0.0)


def identity_basis(cavity, omega_v):
    return ModeBasis(("c", "v1", "v2"), (cavity.omega_c, omega_v, omega_v), tuple(map(tuple, np.eye(3).tolist())), omega_v)


@pytest.mark.parametrize(
    "kind, make_basis", [("vsc", build_mode_basis), ("weak", identity_basis), ("bare", identity_basis)]
)
def test_each_regime_kind_has_one_basis(kind, make_basis):
    cavity = CavitySpec(omega_c=2100.0, g=42.0, kappa=1.0)
    assert mode_basis(kind, cavity, OMEGA_V) == make_basis(cavity, OMEGA_V)


@pytest.mark.parametrize("kind", ["strong", "VSC", ""])
def test_mode_basis_rejects_a_kind_outside_the_regimes(kind):
    cavity = CavitySpec(omega_c=2100.0, g=42.0, kappa=1.0)
    with pytest.raises(ValueError, match=re.escape(f"regime must be one of ('bare', 'weak', 'vsc'), got {kind!r}")):
        mode_basis(kind, cavity, OMEGA_V)


def test_bare_basis_is_identity_rotation():
    basis = mode_basis("bare", CavitySpec(omega_c=2100.0, g=42.0, kappa=1.0), OMEGA_V)
    assert basis.labels == ("c", "v1", "v2")
    assert basis.frequencies == (2100.0, OMEGA_V, OMEGA_V)
    assert np.array_equal(np.array(basis.coefficients), np.eye(3))
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


# state energy axes: species of molecule 1 and 2 (A = 0, B = 1), then the
# pattern: 0 ground, 1..3 one quantum in the basis modes in order
def test_composite_energy_bare():
    network = r1_network()
    basis = mode_basis("bare", CavitySpec(omega_c=2000.0, g=0.0, kappa=1.0), OMEGA_V)
    energies = enumerate_states(network, basis).energies
    assert energies.shape == (2, 2, 4)
    assert energies[0, 0, 0] == 0.0
    assert energies[1, 0, 2] == pytest.approx(800.0)  # B.A|v1
    assert energies[1, 1, 1] == pytest.approx(-400.0)  # B.B|c
    assert energies[0, 1, 3] == pytest.approx(800.0)  # A.B|v2
    # no polaron shift: each vibration is displaced along its own coordinate
    assert energies[1, 1, 0] == -2400.0


def test_composite_energy_vsc_polaron_shift():
    network = r1_network()
    energies = enumerate_states(network, resonant_basis()).energies
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
        e = enumerate_states(network, basis).energies[1, 0, 0]
        assert abs(e - (-1200.0)) < 2e-3 * g * g  # polaron shift dies off quadratically
