"""Reaction network validation and composite-state enumeration."""

import math

import numpy as np
import pytest

from conftest import coupling, parse_label, reference_energy, swapped_label
from vsckinetics.eigenmodes import CavitySpec, bare_mode_basis, build_mode_basis
from vsckinetics.states import (
    CouplingSpec,
    ReactionNetwork,
    SpeciesSpec,
    StateSpace,
    enumerate_states,
    initial_distribution,
    occupation_patterns,
)
from vsckinetics.units import KB

CAVITY = CavitySpec(omega_c=2000.0, g=42.426406871192846, kappa=1.0)
BARE = bare_mode_basis(CAVITY, 2000.0)
VSC = build_mode_basis(CAVITY, 2000.0)


def network_ab():
    return ReactionNetwork(
        species=(SpeciesSpec("A", 0.0, 0.0), SpeciesSpec("B", -1200.0, 1.5)),
        couplings=(CouplingSpec(("A", "B"), J=20.0, lambda_s=160.0),),
    )


def network_abc():
    return ReactionNetwork(
        species=(
            SpeciesSpec("A", 0.0, 0.0),
            SpeciesSpec("B", -2100.0, 1.5),
            SpeciesSpec("C", -2700.0, 4.5),
        ),
        couplings=(
            CouplingSpec(("A", "B"), J=0.6, lambda_s=100.0),
            CouplingSpec(("B", "C"), J=40.0, lambda_s=600.0),
        ),
    )


def test_spec_validation():
    with pytest.raises(ValueError):
        SpeciesSpec("", 0.0, 0.0)
    with pytest.raises(ValueError):
        CouplingSpec(("A", "A"), J=1.0, lambda_s=10.0)
    with pytest.raises(ValueError):
        CouplingSpec(("A", "B"), J=1.0, lambda_s=0.0)  # nonzero J needs lambda_s > 0
    with pytest.raises(ValueError):
        CouplingSpec(("A", "B"), J=0.0, lambda_s=-1.0)
    with pytest.raises(ValueError):
        ReactionNetwork(species=())
    with pytest.raises(ValueError):
        ReactionNetwork(species=(SpeciesSpec("A", 0.0, 0.0), SpeciesSpec("A", 1.0, 0.0)))
    with pytest.raises(ValueError):
        ReactionNetwork(
            species=(SpeciesSpec("A", 0.0, 0.0),),
            couplings=(CouplingSpec(("A", "B"), J=1.0, lambda_s=10.0),),
        )
    with pytest.raises(ValueError):
        ReactionNetwork(
            species=(SpeciesSpec("A", 0.0, 0.0), SpeciesSpec("B", 0.0, 0.0)),
            couplings=(
                CouplingSpec(("A", "B"), J=1.0, lambda_s=10.0),
                CouplingSpec(("B", "A"), J=2.0, lambda_s=10.0),
            ),
        )


def test_network_lookups():
    net = network_ab()
    assert net.labels() == ("A", "B")
    assert net.energy("B") == -1200.0
    assert net.displacement("B") == 1.5
    assert coupling(net, "B", "A").J == 20.0  # unordered lookup
    assert coupling(net, "A", "C") is None
    with pytest.raises(KeyError):
        net.energy("Z")


def test_enumeration_count_and_order():
    assert occupation_patterns(3) == ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
    space = enumerate_states(network_ab(), BARE)
    assert len(space) == 16
    assert space.energies.shape == (2, 2, 4)
    assert (space.species, space.modes) == (("A", "B"), BARE.labels)
    # configuration-major, declaration order; ground first, then one quantum per mode
    assert space.labels()[:8] == (
        "A.A|0", "A.A|c", "A.A|v1", "A.A|v2",
        "A.B|0", "A.B|c", "A.B|v1", "A.B|v2",
    )
    assert len(set(space.labels())) == 16

    vsc_space = enumerate_states(network_ab(), VSC)
    assert vsc_space.labels()[:4] == ("A.A|0", "A.A|+", "A.A|-", "A.A|d")
    abc = enumerate_states(network_abc(), VSC)
    assert len(abc) == 36


def test_layout_arithmetic_matches_the_labels():
    # counts and the exchange follow from the index; check them against the labels
    for net in (network_ab(), network_abc()):
        for basis in (VSC, BARE):
            space = enumerate_states(net, basis)
            labels = space.labels()
            configs = [parse_label(label, basis.labels)[0] for label in labels]
            expected = [[config.count(phi) for phi in space.species] for config in configs]
            assert np.array_equal(space.counts(), expected)
            assert [labels[j] for j in space.exchange] == [swapped_label(x) for x in labels]
            assert np.array_equal(space.exchange[space.exchange], np.arange(len(space)))


def test_state_space_rejects_a_foreign_layout():
    energies = np.zeros((2, 2, 4))
    StateSpace(("A", "B"), BARE.labels, energies, (0, 2, 1))
    with pytest.raises(ValueError, match="layout"):
        StateSpace(("A",), BARE.labels, energies, (0, 2, 1))
    with pytest.raises(ValueError, match="layout"):
        StateSpace(("A", "B"), ("c", "v1"), energies, (0, 1))
    with pytest.raises(ValueError, match="layout"):
        StateSpace(("A", "B"), BARE.labels, energies, (0, 0, 1))


def test_enumeration_energies_share_code_path():
    # one array expression reproduces the per-state formula bit for bit
    for net in (network_ab(), network_abc()):
        for basis in (VSC, BARE):
            space = enumerate_states(net, basis)
            assert space.modes == basis.labels
            for label, energy in zip(space.labels(), space.energies.ravel().tolist()):
                config, occupations = parse_label(label, basis.labels)
                assert energy == reference_energy(config, occupations, basis, net)


def test_energies_are_exchange_symmetric_bit_for_bit():
    # in the identity basis the vanishing shift keeps a roundoff that depends
    # on which vibration is subtracted first: term by term, these displacements
    # give A.B and B.A different bits, while the enumeration gives B.A those of A.B
    net = ReactionNetwork(species=(SpeciesSpec("A", 300.0, 0.7), SpeciesSpec("B", 10.0, 1.1)))
    ground = (0, 0, 0)
    assert reference_energy(("A", "B"), ground, BARE, net) != reference_energy(
        ("B", "A"), ground, BARE, net
    )
    for basis in (BARE, VSC):
        space = enumerate_states(net, basis)
        energy = dict(zip(space.labels(), space.energies.ravel().tolist()))
        for label, e in energy.items():
            assert energy[swapped_label(label)] == e
            config, occupations = parse_label(label, basis.labels)
            if list(config) == sorted(config):
                assert e == reference_energy(config, occupations, basis, net)


def test_initial_distribution_bare():
    space = enumerate_states(network_ab(), BARE)
    p0 = initial_distribution(space, "A", 298.0)
    assert p0.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.all(p0 >= 0.0)
    labels = space.labels()
    energies = space.energies.ravel()
    # support only on the all-reactant configuration
    for i, label in enumerate(labels):
        if not label.startswith("A.A|"):
            assert p0[i] == 0.0
    # Boltzmann ratios within the manifold
    kT = KB * 298.0
    ground = labels.index("A.A|0")
    for i, label in enumerate(labels):
        if label.startswith("A.A|") and i != ground:
            expected = math.exp(-(energies[i] - energies[ground]) / kT)
            assert p0[i] / p0[ground] == pytest.approx(expected, rel=1e-12)
    # nearly all weight sits in the ground state at 298 K for 2000 cm^-1 quanta
    assert p0[ground] > 0.999


def test_initial_distribution_errors():
    space = enumerate_states(network_ab(), BARE)
    with pytest.raises(ValueError):
        initial_distribution(space, "Q", 298.0)
    with pytest.raises(ValueError):
        initial_distribution(space, "A", -10.0)
