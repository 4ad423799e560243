"""Reaction network description and the composite state space.

A composite state pairs an electronic configuration (one species label per
molecule) with a vibrational occupation pattern over the three modes of the
regime's mode basis (polariton/dark modes under VSC, the identity rotation
over cavity and bare vibrations otherwise), truncated to at most one total
quantum. For two molecules and S species that gives S^2 configurations of
P = 4 occupation patterns each, 4*S^2 states, ordered lexicographically by
configuration (declaration order) and then by occupation pattern (ground,
then one quantum in each mode in basis order). ``StateSpace`` is that layout:
a state vector reshapes to (S, S, P), species of molecule 1, species of
molecule 2, pattern, and a state's energy, species counts, exchange image and
label all follow from its index by arithmetic. The generator assembly in
``rates`` relies on exactly this layout.

The two molecules are identical, so swapping them maps state (a, b, p) onto
(b, a, sigma(p)), where sigma trades v1 and v2 in the identity basis and
fixes every eigenmode under VSC. State energies are invariant under that
swap bit for bit, and so is the thermal start of ``initial_distribution``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Tuple

import numpy as np

from .eigenmodes import ModeBasis, state_energies
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


@dataclass(frozen=True)
class SpeciesSpec:
    """One electronic species: label, energy (cm^-1), dimensionless displacement."""

    label: str
    energy: float
    displacement: float

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("species label must be non-empty")


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
        if len(self.pair) != 2 or self.pair[0] == self.pair[1]:
            raise ValueError(f"coupling pair must name two distinct species, got {self.pair}")
        if self.J != 0.0 and self.lambda_s <= 0.0:
            raise ValueError("lambda_s must be > 0 for a nonzero coupling")
        if self.lambda_s < 0.0:
            raise ValueError(f"lambda_s must be >= 0, got {self.lambda_s}")


@dataclass(frozen=True)
class ReactionNetwork:
    """Declared species plus the couplings that connect them."""

    species: Tuple[SpeciesSpec, ...]
    couplings: Tuple[CouplingSpec, ...] = ()

    def __post_init__(self) -> None:
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

    def _lookup(self, label: str) -> SpeciesSpec:
        for s in self.species:
            if s.label == label:
                return s
        raise KeyError(f"unknown species {label!r}")

    def energy(self, label: str) -> float:
        return self._lookup(label).energy

    def displacement(self, label: str) -> float:
        return self._lookup(label).displacement


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

    Energies come from ``state_energies`` in that basis, one array for every
    configuration and occupation pattern, exchange-symmetric bit for bit.
    Swapping the bare vibrations turns each mode's coefficient row into plus
    or minus the row of mode sigma(q): v1 and v2 trade places in the identity
    basis, while +, - and d stay put under VSC, where the sign of the dark row
    is unobservable.
    """
    rows = np.array(basis.coefficients)
    sigma = np.abs(rows[:, [0, 2, 1]] @ rows.T).argmax(axis=1)
    energies = state_energies(network, basis)
    energies.flags.writeable = False
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
