"""Mode bases of two vibrations and one cavity mode, and the displacements of their modes.

Every regime works in one ``ModeBasis``: rows of orthonormal coefficients
over the bare modes (0 = cavity, 1..2 = molecular vibrations). Under VSC the
rows diagonalize the bilinear cavity-vibration Hamiltonian, giving two
polaritons ("+", "-") and a dark combination ("d"). Outside the cavity, and
in the perturbative weak regime, the basis is the identity rotation over the
bare modes ("c", "v1", "v2"). Displacements, the state energies of
``states.enumerate_states``, Franck-Condon factors and the mode block of loss,
gain and exchange (``rates.mode_block``) are then one formula for every
regime, reading modes by position; labels only name them in state labels and
exports. Everything is expressed in wavenumbers (cm^-1); a quantum of mode q
carries energy omega_q directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

__all__ = [
    "CavitySpec",
    "ModeBasis",
    "REGIME_KINDS",
    "build_mode_basis",
    "check_regime_kind",
    "mode_basis",
    "mode_displacements",
    "VSC_MODE_LABELS",
    "BARE_MODE_LABELS",
]

REGIME_KINDS = ("bare", "weak", "vsc")
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
        if not self.omega_c > 0.0:
            raise ValueError(f"omega_c must be > 0, got {self.omega_c}")
        if not self.g >= 0.0:
            raise ValueError(f"g must be >= 0, got {self.g}")
        if not self.kappa >= 0.0:
            raise ValueError(f"kappa must be >= 0, got {self.kappa}")
        # -0.0 passes the check; below resonance it would swap the signs of the "+" and "-" modes
        object.__setattr__(self, "g", abs(self.g))


@dataclass(frozen=True)
class ModeBasis:
    """Modes of the cavity-vibration block.

    ``coefficients[q][i]`` is the amplitude of bare mode i (0 = cavity,
    1..2 = molecular vibrations) in mode q; rows are orthonormal. Mode q is
    position q of ``labels``, ``frequencies`` and ``coefficients`` alike.
    """

    labels: Tuple[str, ...]
    frequencies: Tuple[float, ...]  # cm^-1
    coefficients: Tuple[Tuple[float, ...], ...]
    omega_v: float  # cm^-1, bare vibration (= dark mode) frequency

    def __post_init__(self) -> None:
        if not self.omega_v > 0.0:
            raise ValueError(f"omega_v must be > 0, got {self.omega_v}")


def build_mode_basis(cavity: CavitySpec, omega_v: float) -> ModeBasis:
    """Diagonalize the cavity + two-vibration block.

    Frequencies: omega_pm = (omega_c + omega_v)/2 +- sqrt((omega_c-omega_v)^2
    + 4 g^2 N)/2 with N = 2, dark mode stays at omega_v. The mixing angle is
    taken on the branch theta = atan2(2 g sqrt(N), omega_c - omega_v)/2 in
    (0, pi/2) so the "+" mode is the upper polariton and its cavity amplitude
    is cos(theta). At g = 0 on resonance the angle is its g -> 0+ limit pi/4,
    so the basis joins smoothly onto its neighbours. The dark row is fixed to
    (0, 1/sqrt2, -1/sqrt2); observable rates must not depend on that sign choice.
    A g with 2 g^2 >= omega_c omega_v, where omega_minus <= 0, raises ``ValueError``.
    """
    if omega_v > 0.0 and not 2.0 * cavity.g * cavity.g < cavity.omega_c * omega_v:  # g^2 may read inf
        bound = math.sqrt(0.5 * cavity.omega_c * omega_v)
        raise ValueError(f"g must be < sqrt(omega_c omega_v / 2) = {bound:.1f} cm^-1 under vsc, got {cavity.g!r}")
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
        omega_v=omega_v,
    )


def check_regime_kind(kind: str) -> None:
    """Raise ``ValueError`` unless ``kind`` is one of ``REGIME_KINDS``: the one statement of that rule."""
    if kind not in REGIME_KINDS:
        raise ValueError(f"regime must be one of {REGIME_KINDS}, got {kind!r}")


def mode_basis(kind: str, cavity: CavitySpec, omega_v: float) -> ModeBasis:
    """The basis of a kind out of ``REGIME_KINDS``: the polariton eigenmodes under "vsc", else the identity."""
    check_regime_kind(kind)
    if kind == "vsc":
        return build_mode_basis(cavity, omega_v)
    return ModeBasis(
        labels=BARE_MODE_LABELS,
        frequencies=(cavity.omega_c, omega_v, omega_v),
        coefficients=((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
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
