"""Reaction network description and composite vibronic state enumeration.

A composite state pairs an electronic configuration (one species label per
molecule) with a vibrational occupation pattern over the three modes of the
regime's mode basis (polariton/dark modes under VSC, the identity rotation
over cavity and bare vibrations otherwise), truncated to at most one total
quantum. For two molecules and S species that gives S^2 configurations of
P = 4 occupation patterns each, 4*S^2 states, ordered lexicographically by
configuration (declaration order) and then by occupation pattern (ground,
then one quantum in each mode in basis order). A state vector therefore
reshapes to (S, S, P): species of molecule 1, species of molecule 2, pattern;
the generator assembly in ``rates`` relies on exactly this layout.

The two molecules are identical, so swapping them maps state (a, b, p) onto
(b, a, sigma(p)), where sigma trades v1 and v2 in the identity basis and
fixes every eigenmode under VSC. State energies are invariant under that
swap bit for bit, and so is the thermal start of ``initial_distribution``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence, Tuple

import numpy as np

from .eigenmodes import ModeBasis, state_energies
from .units import thermal_energy

__all__ = [
    "SpeciesSpec",
    "CouplingSpec",
    "ReactionNetwork",
    "CompositeState",
    "occupation_patterns",
    "enumerate_states",
    "initial_distribution",
]


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


@dataclass(frozen=True)
class CompositeState:
    """One basis state of the master equation: configuration + occupations + energy."""

    index: int
    config: Tuple[str, ...]
    occupations: Tuple[int, ...]
    mode_labels: Tuple[str, ...]
    energy: float  # cm^-1

    @property
    def total_quanta(self) -> int:
        return sum(self.occupations)

    @property
    def label(self) -> str:
        if self.total_quanta == 0:
            vib = "0"
        else:
            vib = self.mode_labels[self.occupations.index(1)]
        return f"{'.'.join(self.config)}|{vib}"

    def count(self, species_label: str) -> int:
        return self.config.count(species_label)


def occupation_patterns(n_modes: int) -> Tuple[Tuple[int, ...], ...]:
    """Ground pattern, then one quantum in each mode in basis order."""
    return tuple(tuple(int(j == k) for j in range(n_modes)) for k in range(-1, n_modes))


def enumerate_states(network: ReactionNetwork, basis: ModeBasis) -> Tuple[CompositeState, ...]:
    """Enumerate all composite states over the modes of ``basis``.

    Energies come from ``state_energies`` in that basis, one array for every
    configuration and occupation pattern, exchange-symmetric bit for bit.
    Ordering is deterministic: configuration-major in species declaration
    order, occupation pattern minor, so state (a, b, p) has index
    (a*S + b)*P + p.
    """
    patterns = occupation_patterns(len(basis.labels))
    cells = product(product(network.labels(), repeat=2), patterns)
    energies = state_energies(network, basis).ravel().tolist()
    return tuple(
        CompositeState(k, config, occ, basis.labels, energy)
        for k, ((config, occ), energy) in enumerate(zip(cells, energies))
    )


def initial_distribution(
    states: Sequence[CompositeState],
    reactant: str,
    temperature: float,
) -> np.ndarray:
    """Thermal distribution restricted to the all-``reactant`` configuration.

    Weights are Boltzmann factors at ``temperature`` over the vibrational
    manifold of the configuration with every molecule in the reactant species;
    all other states get probability 0. The result sums to 1.
    """
    kT = thermal_energy(temperature)
    declared = {lab for s in states for lab in s.config}
    if reactant not in declared:
        raise ValueError(f"reactant {reactant!r} not among declared species")
    p = np.zeros(len(states))
    target = [s for s in states if all(lab == reactant for lab in s.config)]
    e_min = min(s.energy for s in target)
    for s in target:
        p[s.index] = np.exp(-(s.energy - e_min) / kT)
    return p / p.sum()
