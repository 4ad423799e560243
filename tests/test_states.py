"""Reaction network validation and composite-state enumeration."""

import math

import numpy as np
import pytest

from conftest import coupling, reference_energy, swapped_label
from vsckinetics.eigenmodes import CavitySpec, bare_mode_basis, build_mode_basis
from vsckinetics.states import (
    CouplingSpec,
    ReactionNetwork,
    SpeciesSpec,
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
    states = enumerate_states(network_ab(), BARE)
    assert len(states) == 16
    assert [s.index for s in states] == list(range(16))
    # configuration-major, declaration order; ground first, then one quantum per mode
    assert [s.label for s in states[:8]] == [
        "A.A|0", "A.A|c", "A.A|v1", "A.A|v2",
        "A.B|0", "A.B|c", "A.B|v1", "A.B|v2",
    ]
    assert states[4].config == ("A", "B")
    assert all(s.total_quanta <= 1 for s in states)

    vsc_states = enumerate_states(network_ab(), VSC)
    assert [s.label for s in vsc_states[:4]] == ["A.A|0", "A.A|+", "A.A|-", "A.A|d"]
    abc = enumerate_states(network_abc(), VSC)
    assert len(abc) == 36


def test_enumeration_energies_share_code_path():
    # one array expression reproduces the per-state formula bit for bit
    for net in (network_ab(), network_abc()):
        for basis in (VSC, BARE):
            for s in enumerate_states(net, basis):
                assert s.mode_labels == basis.labels
                assert s.energy == reference_energy(s.config, s.occupations, basis, net)


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
        states = enumerate_states(net, basis)
        energy = {s.label: s.energy for s in states}
        for s in states:
            assert energy[swapped_label(s.label)] == s.energy
            if list(s.config) == sorted(s.config):
                assert s.energy == reference_energy(s.config, s.occupations, basis, net)


def test_initial_distribution_bare():
    states = enumerate_states(network_ab(), BARE)
    p0 = initial_distribution(states, "A", 298.0)
    assert p0.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.all(p0 >= 0.0)
    # support only on the all-reactant configuration
    for s in states:
        if s.config != ("A", "A"):
            assert p0[s.index] == 0.0
    # Boltzmann ratios within the manifold
    kT = KB * 298.0
    ground = next(s for s in states if s.label == "A.A|0")
    for s in states:
        if s.config == ("A", "A") and s is not ground:
            expected = math.exp(-(s.energy - ground.energy) / kT)
            assert p0[s.index] / p0[ground.index] == pytest.approx(expected, rel=1e-12)
    # nearly all weight sits in the ground state at 298 K for 2000 cm^-1 quanta
    assert p0[ground.index] > 0.999


def test_initial_distribution_errors():
    states = enumerate_states(network_ab(), BARE)
    with pytest.raises(ValueError):
        initial_distribution(states, "Q", 298.0)
    with pytest.raises(ValueError):
        initial_distribution(states, "A", -10.0)
