"""Rate laws: displacement elements, Franck-Condon factors, channel rates, assembly."""

import math
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from conftest import (
    coupling,
    detailed_balance_worst,
    displacement_oracle,
    parse_label,
    reference_assembly,
    reference_franck_condon,
    species,
    swapped_label,
    with_regime,
)
from vsckinetics.config import build_generator, config_from_dict, run_scenario
from vsckinetics.eigenmodes import (
    CavitySpec,
    bare_mode_basis,
    build_mode_basis,
    mode_displacements,
)
from vsckinetics.rates import (
    REGIME_KINDS,
    BathSpec,
    RateMatrix,
    assemble_rate_matrix,
    displacement_matrix_element,
    effective_coupling,
    franck_condon,
    mode_block,
    purcell_exchange_rate,
    reactive_rate,
)
from vsckinetics.states import (
    CouplingSpec,
    ReactionNetwork,
    SpeciesSpec,
    enumerate_states,
)
from vsckinetics.units import HBAR, thermal_energy, wavenumber_to_angular

LAMBDAS = (0.1, 0.728, 1.06, 1.5, 3.0)


def index_of(gen, label: str) -> int:
    return gen.states.labels().index(label)


def off_diagonal(matrix: np.ndarray) -> np.ndarray:
    off = matrix.copy()
    np.fill_diagonal(off, 0.0)
    return off


@pytest.fixture(scope="module")
def r1_bare(reaction1):
    return build_generator(with_regime(reaction1, "bare"))


@pytest.fixture(scope="module")
def r1_weak(reaction1):
    return build_generator(with_regime(reaction1, "weak"))


@pytest.fixture(scope="module")
def r1_vsc(reaction1):
    return build_generator(with_regime(reaction1, "vsc"))


class TestDisplacementElement:
    def test_matches_operator_exponential(self):
        for lam in LAMBDAS:
            for m_from in range(3):
                for m_to in range(3):
                    closed = displacement_matrix_element(m_to, m_from, lam)
                    assert closed == pytest.approx(
                        displacement_oracle(m_to, m_from, lam), abs=1e-8
                    )

    def test_deeper_levels(self):
        # recurrence stays accurate well past the truncation the model uses
        for m_from, m_to in ((5, 2), (2, 5), (4, 4), (0, 6)):
            closed = displacement_matrix_element(m_to, m_from, 1.06)
            assert closed == pytest.approx(displacement_oracle(m_to, m_from, 1.06), abs=1e-8)

    def test_ground_state_overlap(self):
        for lam in LAMBDAS:
            assert displacement_matrix_element(0, 0, lam) == pytest.approx(
                math.exp(-0.5 * lam * lam), rel=1e-14
            )

    def test_single_quantum_frozen(self):
        # <1|D(1.5)|0> = 1.5 exp(-1.125); lowering picks up the sign flip
        assert displacement_matrix_element(1, 0, 1.5) == pytest.approx(
            0.4869787010375246, rel=1e-14
        )
        assert displacement_matrix_element(0, 1, 1.5) == pytest.approx(
            -0.4869787010375246, rel=1e-14
        )

    def test_transpose_and_parity(self):
        for lam in (0.728, 1.5):
            for m_from in range(3):
                for m_to in range(3):
                    el = displacement_matrix_element(m_to, m_from, lam)
                    assert el == pytest.approx(
                        displacement_matrix_element(m_from, m_to, -lam), rel=1e-13, abs=1e-300
                    )
                    sign = (-1.0) ** abs(m_to - m_from)
                    assert el == pytest.approx(
                        sign * displacement_matrix_element(m_from, m_to, lam),
                        rel=1e-13,
                        abs=1e-300,
                    )

    def test_columns_normalized(self):
        for lam in LAMBDAS:
            for m_from in range(3):
                total = sum(
                    displacement_matrix_element(m_to, m_from, lam) ** 2 for m_to in range(40)
                )
                assert total == pytest.approx(1.0, abs=1e-8)

    def test_zero_displacement_is_identity(self):
        assert displacement_matrix_element(2, 2, 0.0) == 1.0
        assert displacement_matrix_element(1, 0, 0.0) == 0.0

    def test_negative_occupation_rejected(self):
        with pytest.raises(ValueError):
            displacement_matrix_element(-1, 0, 1.0)
        with pytest.raises(ValueError):
            displacement_matrix_element(0, -2, 1.0)


@pytest.fixture(scope="module")
def r1_network(reaction1):
    return reaction1.network


@pytest.fixture(scope="module")
def r1_basis(reaction1):
    return build_mode_basis(reaction1.cavity, reaction1.omega_v)


@pytest.fixture(scope="module")
def r1_bare_basis(reaction1):
    return bare_mode_basis(reaction1.cavity, reaction1.omega_v)


def fc_factor(basis, network, occ_to, occ_from, molecule, species_from, species_to):
    """Franck-Condon factor of one molecule's reaction, from species labels."""
    lam_from, lam_to = (
        mode_displacements(basis, molecule, species(network, label).displacement)
        for label in (species_from, species_to)
    )
    return franck_condon([occ_to], [occ_from], lam_from, lam_to)[0, 0]


class TestFranckCondon:
    def test_bare_ground_to_ground(self, r1_bare_basis, r1_network):
        fc = fc_factor(r1_bare_basis, r1_network, (0, 0, 0), (0, 0, 0), 1, "A", "B")
        assert fc == pytest.approx(math.exp(-1.5 * 1.5), rel=1e-14)

    def test_bare_single_quantum_frozen(self, r1_bare_basis, r1_network):
        fc = fc_factor(r1_bare_basis, r1_network, (0, 1, 0), (0, 0, 0), 1, "A", "B")
        assert fc == pytest.approx(0.23714825526419478, rel=1e-13)
        # squared factor is direction-independent for the mirrored transition
        rev = fc_factor(r1_bare_basis, r1_network, (0, 0, 0), (0, 1, 0), 1, "B", "A")
        assert rev == fc

    def test_bare_second_molecule(self, r1_bare_basis, r1_network):
        fc = fc_factor(r1_bare_basis, r1_network, (0, 0, 1), (0, 0, 0), 2, "A", "B")
        assert fc == pytest.approx(0.23714825526419478, rel=1e-13)

    def test_bare_spectator_mismatch_vanishes(self, r1_bare_basis, r1_network):
        # cavity quantum and the other molecule's vibration must carry over
        for occ_to, molecule in (((1, 0, 0), 1), ((0, 0, 1), 1), ((0, 1, 0), 2)):
            fc = fc_factor(r1_bare_basis, r1_network, occ_to, (0, 0, 0), molecule, "A", "B")
            assert fc == 0.0

    def test_vsc_dark_channel_frozen(self, r1_basis, r1_network):
        fc = fc_factor(r1_basis, r1_network, (0, 0, 1), (0, 0, 0), 1, "A", "B")
        assert fc == pytest.approx(0.11821396587947722, rel=1e-12)

    def test_vsc_matches_operator_exponential(self, r1_basis, r1_network):
        # independent route: per-mode oracle elements at the redistributed
        # shifts (species A is undisplaced, so B's shifts are the change)
        shift = mode_displacements(r1_basis, 1, species(r1_network, "B").displacement)
        occs = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
        for occ_from in occs:
            for occ_to in occs:
                expected = 1.0
                for idx in range(3):
                    expected *= displacement_oracle(occ_to[idx], occ_from[idx], shift[idx])
                fc = fc_factor(r1_basis, r1_network, occ_to, occ_from, 1, "A", "B")
                assert fc == pytest.approx(expected * expected, rel=1e-9, abs=1e-12)

    def test_vsc_identity_species(self, r1_basis, r1_network):
        assert fc_factor(r1_basis, r1_network, (0, 0, 0), (0, 0, 0), 1, "A", "A") == 1.0
        assert fc_factor(r1_basis, r1_network, (0, 1, 0), (0, 0, 0), 1, "A", "A") == 0.0


class TestReactiveRate:
    def test_forward_and_reverse_frozen(self, r1_network, r1_bare_basis, r1_bare):
        i_from, i_to = index_of(r1_bare, "A.A|0"), index_of(r1_bare, "B.A|v1")
        energies = r1_bare.states.energies.ravel().tolist()
        fc = fc_factor(r1_bare_basis, r1_network, (0, 1, 0), (0, 0, 0), 1, "A", "B")
        spec = coupling(r1_network, "A", "B")
        de = energies[i_to] - energies[i_from]
        fwd = reactive_rate(spec, fc, de, 298.0)
        rev = reactive_rate(spec, fc, -de, 298.0)
        assert fwd == pytest.approx(1.6636456340688764e-4, rel=1e-12)
        assert rev == pytest.approx(7.916225616532685e-3, rel=1e-12)
        # and the assembled generator carries exactly these entries
        assert r1_bare.matrix[i_to, i_from] == fwd
        assert r1_bare.matrix[i_from, i_to] == rev

    def test_pair_obeys_detailed_balance(self, r1_network, r1_bare_basis, r1_bare):
        i_from, i_to = index_of(r1_bare, "A.A|0"), index_of(r1_bare, "B.A|0")
        energies = r1_bare.states.energies.ravel().tolist()
        fc = fc_factor(r1_bare_basis, r1_network, (0, 0, 0), (0, 0, 0), 1, "A", "B")
        spec = coupling(r1_network, "A", "B")
        de = energies[i_to] - energies[i_from]
        fwd = reactive_rate(spec, fc, de, 298.0)
        rev = reactive_rate(spec, fc, -de, 298.0)
        boltzmann = math.exp(-de / thermal_energy(298.0))
        assert fwd / rev == pytest.approx(boltzmann, rel=1e-13)

    def test_activationless_hits_prefactor(self):
        # energy gap -lambda_s and zero displacement: exponent and FC both 1
        net = ReactionNetwork(
            species=(SpeciesSpec("A", 0.0, 0.0), SpeciesSpec("B", -160.0, 0.0)),
            couplings=(CouplingSpec(("A", "B"), 20.0, 160.0),),
        )
        cavity = CavitySpec(omega_c=2000.0, g=0.0, kappa=1.0)
        space = enumerate_states(net, bare_mode_basis(cavity, 2000.0))
        energy = dict(zip(space.labels(), space.energies.ravel().tolist()))
        kT = thermal_energy(298.0)
        expected = math.sqrt(math.pi / (160.0 * kT)) * 400.0 / HBAR
        de = energy["B.A|0"] - energy["A.A|0"]
        assert reactive_rate(net.couplings[0], 1.0, de, 298.0) == pytest.approx(
            expected, rel=1e-14
        )

    def test_arrays_match_scalars(self, r1_network):
        spec = coupling(r1_network, "A", "B")
        fc = np.array([[1.0, 0.25], [0.5, 0.0]])
        de = np.array([[-1200.0, 800.0], [-3200.0, 10.0]])
        rates = reactive_rate(spec, fc, de, 298.0)
        assert rates.shape == (2, 2)
        for idx in np.ndindex(2, 2):
            assert rates[idx] == reactive_rate(spec, fc[idx], de[idx], 298.0)

    def test_two_molecule_jump_rejected(self, r1_bare, r1_weak, r1_vsc):
        # A.A -> B.B would have both molecules react at once: the generator
        # gives it no rate, while the one-molecule jump A.A -> B.A has one
        for gen in (r1_bare, r1_weak, r1_vsc):
            s_aa = index_of(gen, "A.A|0")
            assert gen.matrix[index_of(gen, "B.B|0"), s_aa] == 0.0
            assert gen.matrix[s_aa, index_of(gen, "B.B|0")] == 0.0
            assert gen.matrix[index_of(gen, "B.A|0"), s_aa] > 0.0


def exchange(basis, bath, q_from: str, q_to: str) -> float:
    """Bath exchange rate from mode q_from to mode q_to, read from the vsc mode block."""
    cavity = CavitySpec(omega_c=2000.0, g=0.0, kappa=1.0)  # sets the losses only
    block = mode_block(basis, cavity, bath, "vsc")
    return block[1 + basis.labels.index(q_to), 1 + basis.labels.index(q_from)]


class TestLossAndGain:
    # row/column 0 of the block is the ground pattern, 1 + q one quantum in mode q
    def test_polariton_loss_mixes_channels(self, r1_basis, reaction1):
        # resonant upper polariton: half cavity, half vibration
        block = mode_block(r1_basis, reaction1.cavity, reaction1.bath, "vsc")
        loss = block[0, 1]
        assert loss == pytest.approx(0.5 * 1.0 + 0.5 * 0.01, rel=1e-12)
        loss_lower = block[0, 2]
        assert loss_lower == pytest.approx(loss, rel=1e-12)

    def test_dark_loss_is_pure_vibration(self, r1_basis, reaction1):
        loss = mode_block(r1_basis, reaction1.cavity, reaction1.bath, "vsc")[0, 3]
        assert loss == pytest.approx(reaction1.bath.gamma, rel=1e-12)

    def test_decoupled_limit(self, reaction1):
        cavity = CavitySpec(omega_c=2100.0, g=0.0, kappa=1.0)
        block = mode_block(build_mode_basis(cavity, 2000.0), cavity, reaction1.bath, "vsc")
        assert block[0, 1] == pytest.approx(1.0, rel=1e-12)
        assert block[0, 2] == pytest.approx(0.01, rel=1e-12)

    def test_bare_modes_lose_to_their_own_channel(self, r1_bare_basis, reaction1):
        # identity basis: the cavity quantum decays at kappa, each vibration at gamma
        cavity, bath = reaction1.cavity, reaction1.bath
        block = mode_block(r1_bare_basis, cavity, bath, "bare")
        assert block[0, 1:].tolist() == [cavity.kappa, bath.gamma, bath.gamma]

    def test_gain_factor_frozen(self):
        cavity = CavitySpec(omega_c=2000.0, g=0.0, kappa=1.0)
        bath = BathSpec(gamma=0.505, eta=0.001, omega_cut=200.0, temperature=298.0)
        block = mode_block(bare_mode_basis(cavity, 2000.0), cavity, bath, "bare")
        assert block[1, 0] == pytest.approx(6.402604171400226e-05, rel=1e-12)
        assert block[2, 0] == pytest.approx(0.505 * 6.402604171400226e-05, rel=1e-12)

    def test_gain_edge_cases(self):
        # a mode that cannot lose its quantum cannot gain one either
        cavity = CavitySpec(omega_c=2000.0, g=0.0, kappa=0.0)
        bath = BathSpec(gamma=0.01, eta=0.001, omega_cut=200.0, temperature=298.0)
        block = mode_block(bare_mode_basis(cavity, 2000.0), cavity, bath, "bare")
        assert block[0, 1] == block[1, 0] == 0.0


class TestExchange:
    def test_downhill_frozen(self, r1_basis, reaction1):
        rate = exchange(r1_basis, reaction1.bath, "+", "d")
        assert rate == pytest.approx(0.06451250668355563, rel=1e-12)

    def test_uphill_frozen(self, r1_basis, reaction1):
        rate = exchange(r1_basis, reaction1.bath, "d", "+")
        assert rate == pytest.approx(0.04828748838279272, rel=1e-12)

    def test_pairwise_detailed_balance(self, r1_basis, reaction1):
        kT = thermal_energy(reaction1.bath.temperature)
        for q_hi, q_lo in (("+", "d"), ("+", "-"), ("d", "-")):
            down = exchange(r1_basis, reaction1.bath, q_hi, q_lo)
            up = exchange(r1_basis, reaction1.bath, q_lo, q_hi)
            hi, lo = (r1_basis.labels.index(q) for q in (q_hi, q_lo))
            gap = r1_basis.frequencies[hi] - r1_basis.frequencies[lo]
            assert gap > 0.0
            assert down > up > 0.0
            assert up / down == pytest.approx(math.exp(-gap / kT), rel=1e-12)

    def test_linear_in_coupling_strength(self, r1_basis, reaction1):
        doubled = replace(reaction1.bath, eta=2.0 * reaction1.bath.eta)
        assert exchange(r1_basis, doubled, "+", "d") == pytest.approx(
            2.0 * exchange(r1_basis, reaction1.bath, "+", "d"), rel=1e-14
        )

    def test_degenerate_modes_take_the_zero_gap_limit(self, r1_basis, reaction1):
        # a mode never exchanges with itself
        block = mode_block(r1_basis, reaction1.cavity, reaction1.bath, "vsc")
        assert np.all(np.diag(block) == 0.0)
        # g = 0 on resonance: every mode sits at omega_v and the zero-gap
        # limit 2 pi * overlap * eta * kT applies both ways; '+' (theta = pi/4)
        # and 'd' share a vibrational overlap of 1/4
        bath = reaction1.bath
        decoupled = build_mode_basis(CavitySpec(omega_c=2000.0, g=0.0, kappa=1.0), 2000.0)
        limit = 2.0 * math.pi * 0.25 * bath.eta * wavenumber_to_angular(
            thermal_energy(bath.temperature)
        )
        assert exchange(decoupled, bath, "+", "d") == pytest.approx(limit, rel=1e-14)
        assert exchange(decoupled, bath, "d", "+") == exchange(decoupled, bath, "+", "d")

    def test_zero_gap_is_the_small_gap_limit(self, reaction1):
        bath = reaction1.bath
        at_zero = build_mode_basis(CavitySpec(omega_c=2000.0, g=0.0, kappa=1.0), 2000.0)
        for g in (1e-3, 1e-5):
            near = build_mode_basis(CavitySpec(omega_c=2000.0, g=g, kappa=1.0), 2000.0)
            for q_from, q_to in (("+", "-"), ("-", "+"), ("+", "d"), ("d", "-")):
                assert exchange(near, bath, q_from, q_to) == pytest.approx(
                    exchange(at_zero, bath, q_from, q_to), rel=g
                )


class TestPurcellExchange:
    def test_resonant_frozen(self):
        rate = purcell_exchange_rate(1.0, 0.01, 0.4242640687119285, 0.0)
        assert rate == pytest.approx(0.025293694291664073, rel=1e-12)

    def test_symmetric_in_partners(self):
        a = purcell_exchange_rate(1.0, 0.01, 0.42, 5.0)
        b = purcell_exchange_rate(0.01, 1.0, 0.42, 5.0)
        assert a == b

    def test_decays_with_detuning(self):
        g = 0.4242640687119285
        on_res = purcell_exchange_rate(1.0, 0.01, g, 0.0)
        rates = [purcell_exchange_rate(1.0, 0.01, g, d) for d in (0.0, 10.0, 100.0, 1e4)]
        assert all(x > y for x, y in zip(rates, rates[1:]))
        assert purcell_exchange_rate(1.0, 0.01, g, 1e6) < 1e-10 * on_res

    def test_zero_coupling(self):
        assert purcell_exchange_rate(1.0, 0.01, 0.0, 0.0) == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            purcell_exchange_rate(0.0, 0.0, 0.42, 0.0)
        with pytest.raises(ValueError):
            purcell_exchange_rate(-1.0, 0.01, 0.42, 0.0)


class TestSpecValidation:
    def test_bath_rejects_bad_values(self):
        with pytest.raises(ValueError):
            BathSpec(gamma=-0.01, eta=0.001, omega_cut=200.0, temperature=298.0)
        with pytest.raises(ValueError):
            BathSpec(gamma=0.01, eta=-0.001, omega_cut=200.0, temperature=298.0)
        with pytest.raises(ValueError):
            BathSpec(gamma=0.01, eta=0.001, omega_cut=0.0, temperature=298.0)
        with pytest.raises(ValueError):
            BathSpec(gamma=0.01, eta=0.001, omega_cut=200.0, temperature=0.0)

    def test_regime_mapping(self):
        g = 42.426406871192846
        assert effective_coupling("vsc", g) == g
        assert effective_coupling("weak", g) == g / 100.0
        assert effective_coupling("bare", g) == 0.0
        with pytest.raises(ValueError, match="regime kind must be one of"):
            effective_coupling("strong", g)


class TestAssembly:
    def test_dimensions_and_column_sums(self, r1_bare, r1_weak, r1_vsc):
        for gen in (r1_bare, r1_weak, r1_vsc):
            assert gen.matrix.shape == (16, 16)
            assert np.abs(gen.matrix.sum(axis=0)).max() <= 1e-12
            assert np.all(off_diagonal(gen.matrix) >= 0.0)
            assert np.all(-np.diag(gen.matrix) >= 0.0)

    def test_bare_has_no_mode_exchange(self, r1_bare):
        K = r1_bare.matrix
        for config in ("A.A", "B.A", "A.B", "B.B"):
            for qa, qb in (("c", "v1"), ("c", "v2"), ("v1", "v2")):
                i = index_of(r1_bare, f"{config}|{qa}")
                j = index_of(r1_bare, f"{config}|{qb}")
                assert K[i, j] == 0.0
                assert K[j, i] == 0.0

    def test_no_two_molecule_jumps(self, r1_bare, r1_weak, r1_vsc, reaction3):
        r3_gens = [build_generator(with_regime(reaction3, kind)) for kind in REGIME_KINDS]
        for gen in [r1_bare, r1_weak, r1_vsc, *r3_gens]:
            K = gen.matrix
            configs = [parse_label(label, gen.states.modes)[0] for label in gen.states.labels()]
            for i_from, config_from in enumerate(configs):
                for i_to, config_to in enumerate(configs):
                    changed = sum(a != b for a, b in zip(config_from, config_to))
                    if changed == 2:
                        assert K[i_to, i_from] == 0.0

    def test_uncoupled_species_never_connect(self, reaction3):
        # reaction3 couples A-B and B-C only: no single-molecule A <-> C entry
        assert coupling(reaction3.network, "A", "C") is None
        for kind in REGIME_KINDS:
            gen = build_generator(with_regime(reaction3, kind))
            configs = [parse_label(label, gen.states.modes)[0] for label in gen.states.labels()]
            for i_from, config_from in enumerate(configs):
                for i_to, config_to in enumerate(configs):
                    changed = {
                        frozenset((a, b)) for a, b in zip(config_from, config_to) if a != b
                    }
                    if changed == {frozenset("AC")}:
                        assert gen.matrix[i_to, i_from] == 0.0

    @pytest.mark.parametrize("scenario", ["reaction1", "reaction2", "reaction3"])
    @pytest.mark.parametrize("kind", REGIME_KINDS)
    @pytest.mark.parametrize("omega_c", [None, 1800.0, 2150.0])
    def test_matches_reference_assembly(self, request, scenario, kind, omega_c):
        config = with_regime(request.getfixturevalue(scenario), kind)
        if omega_c is not None:
            config = replace(config, cavity=replace(config.cavity, omega_c=omega_c))
        gen = build_generator(config)
        make_basis = build_mode_basis if kind == "vsc" else bare_mode_basis
        basis = make_basis(config.cavity, config.omega_v)
        expected = reference_assembly(
            gen.states, config.network, basis, config.cavity, config.bath, kind
        )
        np.testing.assert_allclose(gen.matrix, expected, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("scenario", ["reaction1", "reaction2", "reaction3"])
    def test_vsc_joins_smoothly_onto_g_zero(self, request, scenario):
        base = with_regime(request.getfixturevalue(scenario), "vsc")
        for detuning in (0.0, 50.0, -50.0):
            runs = []
            for g in (0.0, 1e-4):
                cavity = replace(base.cavity, g=g, omega_c=base.omega_v + detuning)
                runs.append(run_scenario(replace(base, cavity=cavity)))
            K0, K1 = (r.rate_matrix.matrix for r in runs)
            assert np.abs(K1 - K0).max() <= 1e-6 * np.abs(K0).max()
            p0, p1 = (r.trajectory.species_populations for r in runs)
            assert np.abs(p1 - p0).max() <= 1e-9

    def test_sparsity_counts(self, r1_bare, r1_weak, r1_vsc):
        # bare: 24 loss/gain + 48 reactive; weak adds 16 cavity-vibration
        # entries; vsc: 48 within-configuration + 128 reactive
        assert np.count_nonzero(off_diagonal(r1_bare.matrix)) == 72
        assert np.count_nonzero(off_diagonal(r1_weak.matrix)) == 88
        assert np.count_nonzero(off_diagonal(r1_vsc.matrix)) == 176

    def test_weak_exchange_matches_bare_out_rates(self, reaction1, r1_bare, r1_weak):
        K = r1_weak.matrix
        out = -np.diag(r1_bare.matrix)
        g_weak = reaction1.cavity.g / 100.0
        delta = reaction1.cavity.omega_c - reaction1.omega_v
        for config in ("A.A", "B.A", "A.B", "B.B"):
            i_c = index_of(r1_weak, f"{config}|c")
            for vib in ("v1", "v2"):
                i_v = index_of(r1_weak, f"{config}|{vib}")
                expected = purcell_exchange_rate(out[i_c], out[i_v], g_weak, delta)
                assert K[i_v, i_c] == pytest.approx(expected, rel=1e-12)
                assert K[i_c, i_v] == K[i_v, i_c]
        # the two vibrations still do not talk to each other directly
        for config in ("A.A", "B.A"):
            i1 = index_of(r1_weak, f"{config}|v1")
            i2 = index_of(r1_weak, f"{config}|v2")
            assert K[i1, i2] == 0.0

    def test_vsc_exchange_entries_present(self, r1_vsc):
        K = r1_vsc.matrix
        for config in ("A.A", "B.B"):
            for qa in ("+", "-", "d"):
                for qb in ("+", "-", "d"):
                    if qa == qb:
                        continue
                    i = index_of(r1_vsc, f"{config}|{qa}")
                    j = index_of(r1_vsc, f"{config}|{qb}")
                    assert K[j, i] > 0.0

    @pytest.mark.parametrize("scenario", ["reaction1", "reaction2", "reaction3"])
    @pytest.mark.parametrize("kind", ["bare", "vsc"])
    def test_detailed_balance(self, request, scenario, kind):
        config = request.getfixturevalue(scenario)
        gen = build_generator(with_regime(config, kind))
        energies = gen.states.energies.ravel()
        kT = thermal_energy(config.bath.temperature)
        assert detailed_balance_worst(gen.matrix, energies, kT) <= 1e-10

    def test_underflowing_reactive_pairs_are_dropped(self):
        # S0's one-quantum factors (displacement 1.28e-158) fall below the
        # smallest double: six rates would be 5e-324 with partners of 0
        config = config_from_dict(
            {
                "species": [
                    {"label": "S0", "energy": 626.0, "displacement": 1.28e-158},
                    {"label": "S1", "energy": 0.0, "displacement": 0.0},
                    {"label": "S2", "energy": -559.0, "displacement": 0.0},
                ],
                "couplings": [{"pair": ["S0", "S2"], "J": 1.0, "lambda_s": 100.0}],
                "bath": {"temperature": 150.0},
                "regime": "bare",
            }
        )
        gen = build_generator(config)
        off = off_diagonal(gen.matrix)
        assert not np.any((off > 0.0) & (off < np.finfo(float).tiny))
        energies = gen.states.energies.ravel()
        kT = thermal_energy(config.bath.temperature)
        assert detailed_balance_worst(gen.matrix, energies, kT) <= 1e-10

    def test_detailed_balance_weak_resonant(self, reaction1, r1_weak):
        # at zero cavity detuning the symmetric exchange connects isoenergetic
        # states, so the perturbative generator is balanced too
        assert reaction1.cavity.omega_c == reaction1.omega_v
        energies = r1_weak.states.energies.ravel()
        kT = thermal_energy(reaction1.bath.temperature)
        assert detailed_balance_worst(r1_weak.matrix, energies, kT) <= 1e-10

    def test_dark_row_sign_is_unobservable(self, reaction1, r1_basis, r1_vsc):
        flipped_rows = tuple(
            tuple(-c for c in row) if label == "d" else row
            for label, row in zip(r1_basis.labels, r1_basis.coefficients)
        )
        flipped = replace(r1_basis, coefficients=flipped_rows)
        assert flipped.coefficients[2][1] == -r1_basis.coefficients[2][1]  # the "d" row
        alt = assemble_rate_matrix(
            reaction1.network, flipped, reaction1.cavity, reaction1.bath, "vsc"
        )
        assert np.abs(alt.matrix - r1_vsc.matrix).max() <= 1e-12

    def test_basis_must_match_regime(self, reaction1, r1_basis, r1_bare_basis):
        # the eigenmode basis belongs to vsc, the identity basis to bare and weak
        network, cavity, bath = reaction1.network, reaction1.cavity, reaction1.bath
        for kind, basis in (("bare", r1_basis), ("weak", r1_basis), ("vsc", r1_bare_basis)):
            with pytest.raises(ValueError, match="mode basis"):
                assemble_rate_matrix(network, basis, cavity, bath, kind)
        # a kind outside REGIME_KINDS is rejected by name, in either basis
        for basis in (r1_basis, r1_bare_basis):
            with pytest.raises(ValueError, match=r"one of \('bare', 'weak', 'vsc'\)"):
                assemble_rate_matrix(network, basis, cavity, bath, "strong")


class TestMoleculeExchange:
    @pytest.mark.parametrize("scenario", ["reaction1", "reaction2", "reaction3"])
    @pytest.mark.parametrize("kind", REGIME_KINDS)
    @pytest.mark.parametrize("omega_c", [None, 1800.0, 2150.0])
    def test_generator_commutes_with_the_exchange(self, request, scenario, kind, omega_c):
        config = with_regime(request.getfixturevalue(scenario), kind)
        if omega_c is not None:
            config = replace(config, cavity=replace(config.cavity, omega_c=omega_c))
        gen = build_generator(config)
        perm = gen.states.exchange
        labels = gen.states.labels()
        assert [labels[j] for j in perm] == [swapped_label(label) for label in labels]
        energies = gen.states.energies.ravel()
        assert np.array_equal(energies[perm], energies)  # bit for bit
        K = gen.matrix
        assert np.array_equal(off_diagonal(K[perm][:, perm]), off_diagonal(K))
        # the diagonal sums the same rates in another order
        diag = np.diag(K)
        assert np.all(np.abs(diag[perm] - diag) <= 4 * np.finfo(float).eps * np.abs(diag))

    def test_dark_row_sign_keeps_the_exchange(self, reaction1, r1_basis, r1_vsc):
        flipped = replace(
            r1_basis,
            coefficients=tuple(
                tuple(-c for c in row) if label == "d" else row
                for label, row in zip(r1_basis.labels, r1_basis.coefficients)
            ),
        )
        assert np.array_equal(
            enumerate_states(reaction1.network, flipped).exchange, r1_vsc.states.exchange
        )

    def test_franck_condon_tables_match_pairwise_factors_bit_for_bit(self, reaction3):
        network = reaction3.network
        one_quantum = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
        deeper = ((0, 2, 0), (1, 1, 0), (0, 0, 3))
        for basis in (
            bare_mode_basis(reaction3.cavity, reaction3.omega_v),
            build_mode_basis(reaction3.cavity, reaction3.omega_v),
        ):
            for a, b in (("A", "B"), ("B", "C"), ("C", "A"), ("B", "B")):
                lam_a, lam_b = (
                    mode_displacements(basis, 1, species(network, phi).displacement)
                    for phi in (a, b)
                )
                for to, frm in ((one_quantum, one_quantum), (deeper, one_quantum)):
                    matrix = franck_condon(to, frm, lam_a, lam_b)
                    assert matrix.shape == (len(to), len(frm))
                    for (m, occ_to), (n, occ_from) in product(enumerate(to), enumerate(frm)):
                        expected = reference_franck_condon(occ_to, occ_from, lam_a, lam_b)
                        assert matrix[m, n] == expected

    def test_franck_condon_rejects_negative_occupations(self, r1_bare_basis):
        lam = mode_displacements(r1_bare_basis, 1, 1.5)
        with pytest.raises(ValueError, match="non-negative"):
            franck_condon([(-1, 0, 0)], [(0, 0, 0)], (0.0, 0.0, 0.0), lam)

    def test_exchange_is_validated(self, r1_vsc):
        def rebuild(matrix):
            return RateMatrix(r1_vsc.states, matrix)

        rebuild(r1_vsc.matrix)
        # a generator laid out for another state order: A.A|0 and A.B|0 trade places
        swap = np.arange(16)
        swap[[0, 4]] = [4, 0]
        with pytest.raises(ValueError, match="commute"):
            rebuild(r1_vsc.matrix[swap][:, swap])
        # one molecule's reaction made faster than the other's breaks the symmetry
        skewed = r1_vsc.matrix.copy()
        i, j = index_of(r1_vsc, "B.A|0"), index_of(r1_vsc, "A.A|0")
        skewed[i, j] *= 1.0 + 1e-9
        skewed[j, j] -= skewed[i, j] - r1_vsc.matrix[i, j]
        with pytest.raises(ValueError, match="commute"):
            rebuild(skewed)
