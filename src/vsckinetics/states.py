"""Reaction network description and the composite state space.

A composite state pairs an electronic configuration (one species label per
molecule) with a vibrational occupation pattern over the three modes of the
regime's mode basis (polariton/dark modes under VSC, the identity rotation
over cavity and bare vibrations otherwise), truncated to at most one total
quantum. For two molecules and S species that gives S^2 configurations of
P = 4 occupation patterns each, 4*S^2 states, ordered lexicographically by
configuration (declaration order) and then by occupation pattern (ground,
then one quantum in each mode in basis order). ``StateSpace`` is that layout
and owns what follows from it: a state vector reshapes to (S, S, P), species
of molecule 1, species of molecule 2, pattern, and a state's energy, species
counts, exchange image, exchange orbit and label all follow from its index.
The generator assembly in ``rates`` and the lumping in ``propagate`` rely on
exactly this layout.

The two molecules are identical, so swapping them maps state (a, b, p) onto
(b, a, sigma(p)), where sigma trades v1 and v2 in the identity basis and
fixes every eigenmode under VSC. State energies are invariant under that
swap bit for bit, and so is the thermal start of ``initial_distribution``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Tuple

import numpy as np

from .eigenmodes import ModeBasis, mode_displacements
from .units import thermal_energy

__all__ = [
    "SpeciesSpec",
    "CouplingSpec",
    "ReactionNetwork",
    "StateSpace",
    "occupation_patterns",
    "enumerate_states",
    "initial_distribution",
]

MOLECULES = 2  # every layout holds two identical molecules

# state labels join species with "." and "|", CSV headers join columns with ",", and
# str.splitlines() also breaks at control characters and U+2028/U+2029
_LABEL_FORBIDDEN = re.compile(r"[.|,\x00-\x1f\x7f-\x9f\u2028\u2029]")


@dataclass(frozen=True)
class SpeciesSpec:
    """One electronic species: label, energy (cm^-1), dimensionless displacement."""

    label: str
    energy: float
    displacement: float

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("species.label must be non-empty")
        if _LABEL_FORBIDDEN.search(self.label):
            raise ValueError(
                "species.label must not contain '.', '|', ',', control characters or line"
                f" separators, got {self.label!r}"
            )
        for name in ("energy", "displacement"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"species {name} must be finite, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class CouplingSpec:
    """Electronic coupling between an unordered species pair.

    J is the diabatic coupling (cm^-1), lambda_s the classical (solvent)
    reorganization energy (cm^-1) for that transition.
    """

    pair: Tuple[str, str]
    J: float
    lambda_s: float

    def __post_init__(self) -> None:
        if not isinstance(self.pair, tuple):
            raise ValueError(f"coupling pair must be a tuple, got {type(self.pair).__name__}")
        if len(self.pair) != 2 or self.pair[0] == self.pair[1]:
            raise ValueError(f"coupling pair must name two distinct species, got {self.pair}")
        if not math.isfinite(self.J):
            raise ValueError(f"J must be finite, got {self.J!r}")
        if self.J != 0.0 and not self.lambda_s > 0.0:
            raise ValueError("lambda_s must be > 0 for a nonzero coupling")
        if not self.lambda_s >= 0.0:
            raise ValueError(f"lambda_s must be >= 0, got {self.lambda_s}")


@dataclass(frozen=True)
class ReactionNetwork:
    """Declared species plus the couplings that connect them."""

    species: Tuple[SpeciesSpec, ...]
    couplings: Tuple[CouplingSpec, ...] = ()

    def __post_init__(self) -> None:
        for field in ("species", "couplings"):  # a network keys the cache of its reactive part
            value = getattr(self, field)
            if not isinstance(value, tuple):
                raise ValueError(f"network {field} must be a tuple, got {type(value).__name__}")
        if not self.species:
            raise ValueError("network needs at least one species")
        labels = [s.label for s in self.species]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate species labels in {labels}")
        seen_pairs = set()
        for c in self.couplings:
            for lab in c.pair:
                if lab not in labels:
                    raise ValueError(f"coupling references undeclared species {lab!r}")
            key = frozenset(c.pair)
            if key in seen_pairs:
                raise ValueError(f"duplicate coupling for pair {tuple(sorted(c.pair))}")
            seen_pairs.add(key)

    def labels(self) -> Tuple[str, ...]:
        return tuple(s.label for s in self.species)


@dataclass(frozen=True, eq=False)
class StateSpace:
    """Every composite state of two molecules, as one (S, S, P) layout.

    State (a, b, p), molecule 1 in species a, molecule 2 in species b and
    occupation pattern p, has index (a*S + b)*P + p, and ``energies[a, b, p]``
    is its energy (cm^-1). Pattern 0 is the ground state and pattern q one
    quantum in mode ``modes[q - 1]``. Swapping the molecules turns mode
    ``modes[m]`` into ``modes[mode_swap[m]]``.
    """

    species: Tuple[str, ...]
    modes: Tuple[str, ...]
    energies: np.ndarray  # (S, S, P), cm^-1
    mode_swap: Tuple[int, ...]

    def __post_init__(self) -> None:
        S, M = len(self.species), len(self.modes)
        if self.energies.shape != (S, S, 1 + M) or sorted(self.mode_swap) != list(range(M)):
            raise ValueError(f"no layout of {S} species over modes {self.modes}")

    def __len__(self) -> int:
        return self.energies.size

    @cached_property
    def exchange(self) -> np.ndarray:
        """State permutation that swaps the molecules: (a, b, p) maps onto (b, a, sigma(p))."""
        cells = np.arange(len(self)).reshape(self.energies.shape)
        perm = cells.transpose(1, 0, 2)[:, :, [0, *(1 + q for q in self.mode_swap)]].ravel()
        perm.flags.writeable = False
        return perm

    @cached_property
    def excitations(self) -> np.ndarray:
        """Each state's energy above the lowest state (cm^-1), flat and read-only."""
        E = self.energies.ravel()
        excitations = E - E.min()
        excitations.flags.writeable = False
        return excitations

    @cached_property
    def orbits(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The orbits {i, exchange[i]}: each state's orbit, each orbit's lowest state, the
        (orbits, states) lumping matrix and the size of each state's orbit, all read-only."""
        index = np.arange(len(self))
        lowest = np.minimum(index, self.exchange)
        members = np.flatnonzero(lowest == index)
        orbit = np.searchsorted(members, lowest)
        lump = np.zeros((len(members), len(self)))
        lump[orbit, index] = 1.0
        parts = (orbit, members, lump, lump.sum(axis=1)[orbit])
        for array in parts:
            array.flags.writeable = False
        return parts

    def counts(self) -> np.ndarray:
        """Molecules of each species in each state, shape (len, S)."""
        S, _, P = self.energies.shape
        one = np.eye(S)
        return np.repeat((one[:, None, :] + one[None, :, :]).reshape(S * S, S), P, axis=0)

    def labels(self) -> Tuple[str, ...]:
        """``a.b|q`` per state: the two species, then the excited mode or 0."""
        return tuple(
            f"{a}.{b}|{q}" for a, b in product(self.species, repeat=2) for q in ("0", *self.modes)
        )


def occupation_patterns(n_modes: int) -> Tuple[Tuple[int, ...], ...]:
    """Ground pattern, then one quantum in each mode in basis order."""
    return tuple(tuple(int(j == k) for j in range(n_modes)) for k in range(-1, n_modes))


def enumerate_states(network: ReactionNetwork, basis: ModeBasis) -> StateSpace:
    """The state space of ``network`` over the modes of ``basis``.

    Each energy (cm^-1) is the sum of electronic energies and mode quanta,
    plus the polaron shift omega_v * sum_i lambda_phi_i^2 - sum_q omega_q *
    lambda_config_q^2 that the basis rotation leaves behind. The shift
    vanishes in the identity basis, where each vibration is displaced along
    its own coordinate. Swapping the molecules maps (a, b) onto (b, a) and
    fixes the shift, but in the identity basis its roundoff depends on the
    order in which the two vibrations are subtracted; (b, a) with a < b
    therefore takes the shift of (a, b), so the energies are exchange-symmetric
    bit for bit. Swapping the bare vibrations turns each mode's coefficient
    row into plus or minus the row of mode sigma(q): v1 and v2 trade places in
    the identity basis, while +, - and d stay put under VSC, where the sign of
    the dark row is unobservable.
    """
    lams = [s.displacement for s in network.species]
    squares = np.array([lam**2 for lam in lams])
    mol1, mol2 = (np.array([mode_displacements(basis, i, lam) for lam in lams]) for i in (1, 2))
    shift = basis.omega_v * (squares[:, None] + squares[None, :])
    for q, omega_q in enumerate(basis.frequencies):
        lam = mol1[:, None, q] + mol2[None, :, q]
        shift = shift - omega_q * lam * lam
    species = np.arange(len(lams))
    shift = np.where(species[:, None] > species, shift.T, shift)
    electronic = np.array([s.energy for s in network.species])
    quanta = np.array([0.0, *basis.frequencies])
    energies = (electronic[:, None, None] + electronic[None, :, None] + quanta) + shift[:, :, None]
    energies.flags.writeable = False
    rows = np.array(basis.coefficients)
    sigma = np.abs(rows[:, [0, 2, 1]] @ rows.T).argmax(axis=1)
    return StateSpace(network.labels(), basis.labels, energies, tuple(sigma.tolist()))


def initial_distribution(space: StateSpace, reactant: str, temperature: float) -> np.ndarray:
    """Thermal distribution restricted to the all-``reactant`` configuration.

    Weights are Boltzmann factors at ``temperature`` over the vibrational
    manifold of the configuration with every molecule in the reactant species;
    all other states get probability 0. The result sums to 1.
    """
    kT = thermal_energy(temperature)
    if reactant not in space.species:
        raise ValueError(f"reactant {reactant!r} not among declared species")
    a = space.species.index(reactant)
    target = space.energies[a, a]
    p = np.zeros(space.energies.shape)
    p[a, a] = np.exp(-(target - target.min()) / kT)
    return p.ravel() / p.sum()
