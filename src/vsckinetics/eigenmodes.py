"""Mode bases of two vibrations and one cavity mode, and composite energies.

Every regime works in one ``ModeBasis``: rows of orthonormal coefficients
over the bare modes (0 = cavity, 1..2 = molecular vibrations). Under VSC the
rows diagonalize the bilinear cavity-vibration Hamiltonian, giving two
polaritons ("+", "-") and a dark combination ("d"). Outside the cavity, and
in the perturbative weak regime, the basis is the identity rotation over the
bare modes ("c", "v1", "v2"). Displacements, energies, Franck-Condon factors
and loss rates are then one formula for every regime. Everything is expressed
in wavenumbers (cm^-1); a quantum of mode q carries energy omega_q directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .states import ReactionNetwork

__all__ = [
    "CavitySpec",
    "ModeBasis",
    "build_mode_basis",
    "bare_mode_basis",
    "mode_displacements",
    "state_energies",
    "VSC_MODE_LABELS",
    "BARE_MODE_LABELS",
]

VSC_MODE_LABELS: Tuple[str, str, str] = ("+", "-", "d")
BARE_MODE_LABELS: Tuple[str, str, str] = ("c", "v1", "v2")

_SQRT2 = math.sqrt(2.0)  # two molecules: collective coupling g*sqrt(2)


@dataclass(frozen=True)
class CavitySpec:
    """Cavity parameters: frequency and loss in cm^-1 / ps^-1, single-molecule coupling g."""

    omega_c: float  # cm^-1
    g: float  # cm^-1, single-molecule coupling strength
    kappa: float  # ps^-1, photon loss rate

    def __post_init__(self) -> None:
        if self.omega_c <= 0.0:
            raise ValueError(f"omega_c must be > 0, got {self.omega_c}")
        if self.g < 0.0:
            raise ValueError(f"g must be >= 0, got {self.g}")
        if self.kappa < 0.0:
            raise ValueError(f"kappa must be >= 0, got {self.kappa}")


@dataclass(frozen=True)
class ModeBasis:
    """Modes of the cavity-vibration block.

    ``coefficients[q][i]`` is the amplitude of bare mode i (0 = cavity,
    1..2 = molecular vibrations) in mode q; rows are orthonormal.
    ``frequencies`` aligns with ``labels``.
    """

    labels: Tuple[str, ...]
    frequencies: Tuple[float, ...]  # cm^-1
    coefficients: Tuple[Tuple[float, ...], ...]
    mixing_angle: float  # rad
    omega_v: float  # cm^-1, bare vibration (= dark mode) frequency

    def __post_init__(self) -> None:
        if self.omega_v <= 0.0:
            raise ValueError(f"omega_v must be > 0, got {self.omega_v}")

    def frequency(self, label: str) -> float:
        return self.frequencies[self.labels.index(label)]

    def coefficient(self, label: str, bare_index: int) -> float:
        return self.coefficients[self.labels.index(label)][bare_index]


def build_mode_basis(cavity: CavitySpec, omega_v: float) -> ModeBasis:
    """Diagonalize the cavity + two-vibration block.

    Frequencies: omega_pm = (omega_c + omega_v)/2 +- sqrt((omega_c-omega_v)^2
    + 4 g^2 N)/2 with N = 2, dark mode stays at omega_v. The mixing angle is
    taken on the branch theta = atan2(2 g sqrt(N), omega_c - omega_v)/2 in
    (0, pi/2) so the "+" mode is the upper polariton and its cavity amplitude
    is cos(theta). At g = 0 on resonance the angle is its g -> 0+ limit pi/4,
    so the basis joins smoothly onto its neighbours. The dark row is fixed to
    (0, 1/sqrt2, -1/sqrt2); observable rates must not depend on that sign choice.
    """
    g_coll = cavity.g * _SQRT2
    detuning = cavity.omega_c - omega_v
    half_split = 0.5 * math.sqrt(detuning * detuning + 4.0 * g_coll * g_coll)
    center = 0.5 * (cavity.omega_c + omega_v)
    omega_plus = center + half_split
    omega_minus = center - half_split
    theta = 0.5 * math.atan2(2.0 * g_coll, detuning) if g_coll or detuning else 0.25 * math.pi
    ct, st = math.cos(theta), math.sin(theta)
    coefficients = (
        (ct, st / _SQRT2, st / _SQRT2),
        (st, -ct / _SQRT2, -ct / _SQRT2),
        (0.0, 1.0 / _SQRT2, -1.0 / _SQRT2),
    )
    return ModeBasis(
        labels=VSC_MODE_LABELS,
        frequencies=(omega_plus, omega_minus, omega_v),
        coefficients=coefficients,
        mixing_angle=theta,
        omega_v=omega_v,
    )


def bare_mode_basis(cavity: CavitySpec, omega_v: float) -> ModeBasis:
    """The uncoupled modes as the identity rotation: cavity, vibration 1, vibration 2."""
    return ModeBasis(
        labels=BARE_MODE_LABELS,
        frequencies=(cavity.omega_c, omega_v, omega_v),
        coefficients=((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
        mixing_angle=0.0,
        omega_v=omega_v,
    )


def mode_displacements(basis: ModeBasis, molecule: int, lam: float) -> Tuple[float, ...]:
    """Displacement of every mode when ``molecule`` (1-based) is displaced by ``lam``.

    Mode q moves by c_qi * (omega_v / omega_q) * lam, which preserves the
    physical equilibrium geometry of the bare vibration after the basis
    rotation. In the identity basis only the molecule's own vibration moves.
    """
    if not 1 <= molecule < len(basis.coefficients[0]):
        raise ValueError(f"molecule must be 1 or 2, got {molecule}")
    return tuple(
        [
            row[molecule] * (basis.omega_v / omega_q) * lam
            for row, omega_q in zip(basis.coefficients, basis.frequencies)
        ]
    )


def state_energies(network: "ReactionNetwork", basis: ModeBasis) -> np.ndarray:
    """Energy (cm^-1) of every composite state over ``basis``, shape (S, S, 1 + M).

    Axes: species of molecule 1 and of molecule 2 in declaration order, then
    the occupation pattern (ground, then one quantum in each of the M modes in
    basis order), the layout of ``enumerate_states``. Each energy is the sum
    of electronic energies and mode quanta, plus the polaron shift
    omega_v * sum_i lambda_phi_i^2 - sum_q omega_q * lambda_config_q^2 that
    the basis rotation leaves behind. The shift vanishes in the identity
    basis, where each vibration is displaced along its own coordinate.

    Swapping the molecules maps (a, b) onto (b, a) and fixes the shift, but
    in the identity basis its roundoff depends on the order in which the two
    vibrations are subtracted; (b, a) with a < b therefore takes the shift of
    (a, b), so the energies are exchange-symmetric bit for bit.
    """
    energies = np.array([s.energy for s in network.species])
    lams = [s.displacement for s in network.species]
    squares = np.array([lam**2 for lam in lams])
    mol1, mol2 = (np.array([mode_displacements(basis, i, lam) for lam in lams]) for i in (1, 2))
    shift = basis.omega_v * (squares[:, None] + squares[None, :])
    for q, omega_q in enumerate(basis.frequencies):
        lam = mol1[:, None, q] + mol2[None, :, q]
        shift = shift - omega_q * lam * lam
    species = np.arange(len(lams))
    shift = np.where(species[:, None] > species, shift.T, shift)
    quanta = np.array([0.0, *basis.frequencies])
    return (energies[:, None, None] + energies[None, :, None] + quanta) + shift[:, :, None]
