"""Propagation: time grids, spectral evolution against expm, observables, scaling criterion."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.sparse.csgraph import connected_components

from conftest import STIFF_REDUCIBLE, mpmath_doubling_populations, swapped_label, with_regime
from test_properties import configs
from vsckinetics import propagate as propagate_module
from vsckinetics.config import build_generator, config_from_dict, run_scenario
from vsckinetics.propagate import (
    DEFAULT_GRID_END,
    DEFAULT_GRID_POINTS,
    DEFAULT_GRID_START,
    TimeGrid,
    clamp_for_output,
    propagate,
    vsc_scaling_criterion,
)
from vsckinetics.rates import REGIME_KINDS, RateMatrix
from vsckinetics.states import StateSpace, initial_distribution


def two_species_generator(k: float) -> RateMatrix:
    """Each molecule reacts A -> B irreversibly at rate k; no modes, so N_A(t) = 2 exp(-k t)."""
    space = StateSpace(("A", "B"), (), np.zeros((2, 2, 1)), ())
    # states A.A, A.B, B.A, B.B; K[j, i] is the rate i -> j
    matrix = np.array(
        [
            [-2.0 * k, 0.0, 0.0, 0.0],
            [k, -k, 0.0, 0.0],
            [k, 0.0, -k, 0.0],
            [0.0, k, k, 0.0],
        ]
    )
    return RateMatrix(states=space, matrix=matrix)


@pytest.fixture(scope="module")
def r1_vsc(reaction1):
    return build_generator(with_regime(reaction1, "vsc"))


@pytest.fixture(scope="module")
def r1_vsc_p0(r1_vsc, reaction1):
    return initial_distribution(r1_vsc.states, "A", reaction1.bath.temperature)


class TestTimeGrid:
    def test_default(self):
        grid = config_from_dict({"species": [{"label": "A"}]}).grid
        assert len(grid.points) == DEFAULT_GRID_POINTS
        assert grid.points[0] == DEFAULT_GRID_START
        assert grid.points[-1] == pytest.approx(DEFAULT_GRID_END, rel=1e-12)
        assert grid.points == tuple(np.geomspace(DEFAULT_GRID_START, DEFAULT_GRID_END, DEFAULT_GRID_POINTS))
        assert grid.spacing == "log"

    def test_logarithmic_has_constant_ratio(self):
        grid = TimeGrid.logarithmic(0.1, 1000.0, 9)
        ratios = [b / a for a, b in zip(grid.points, grid.points[1:])]
        assert ratios == pytest.approx([ratios[0]] * len(ratios), rel=1e-12)

    def test_linear_has_constant_step(self):
        grid = TimeGrid.linear(0.0, 10.0, 6)
        steps = [b - a for a, b in zip(grid.points, grid.points[1:])]
        assert steps == pytest.approx([2.0] * 5, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid.logarithmic(0.0, 10.0, 5)
        with pytest.raises(ValueError):
            TimeGrid.logarithmic(1.0, 1.0, 5)
        with pytest.raises(ValueError):
            TimeGrid.linear(0.0, 10.0, 1)
        with pytest.raises(ValueError):
            TimeGrid(points=(), spacing="log")
        with pytest.raises(ValueError):
            TimeGrid(points=(1.0, 1.0), spacing="log")
        with pytest.raises(ValueError):
            TimeGrid(points=(-1.0, 1.0), spacing="linear")
        with pytest.raises(ValueError):
            TimeGrid(points=(1.0, 2.0), spacing="geometric")


class TestPropagate:
    def test_zero_generator_is_stationary(self):
        gen = two_species_generator(0.0)
        p0 = np.array([0.1, 0.2, 0.3, 0.4])
        traj = propagate(gen, p0, TimeGrid.linear(0.0, 100.0, 5))
        assert np.abs(traj.state_populations - p0).max() == 0.0

    def test_matches_closed_form_decay(self):
        k = 0.17
        gen = two_species_generator(k)
        grid = TimeGrid.linear(0.0, 40.0, 9)
        traj = propagate(gen, np.array([1.0, 0.0, 0.0, 0.0]), grid)
        expected = np.exp(-k * np.asarray(grid.points))
        assert traj.species_series("A") == pytest.approx(2.0 * expected, rel=1e-12)
        assert traj.species_series("B") == pytest.approx(2.0 * (1.0 - expected), rel=1e-10)
        assert traj.state_populations[0, 0] == 1.0  # t = 0 reproduces p0 exactly

    def test_conserves_probability_and_positivity(self, r1_vsc, r1_vsc_p0):
        grid = TimeGrid.logarithmic(0.1, 5.0e4, 25)
        traj = propagate(r1_vsc, r1_vsc_p0, grid)
        assert np.abs(traj.state_populations.sum(axis=1) - 1.0).max() <= 1e-9
        assert traj.state_populations.min() >= -1e-10

    def test_semigroup_property(self, r1_vsc, r1_vsc_p0):
        t1, t2 = 7.3, 12.9
        direct = propagate(r1_vsc, r1_vsc_p0, TimeGrid(points=(t1 + t2,), spacing="linear"))
        staged = propagate(r1_vsc, r1_vsc_p0, TimeGrid(points=(t1,), spacing="linear"))
        restart = propagate(
            r1_vsc,
            staged.state_populations[0] / staged.state_populations[0].sum(),
            TimeGrid(points=(t2,), spacing="linear"),
        )
        assert np.abs(direct.state_populations[0] - restart.state_populations[0]).max() <= 1e-9

    def test_agrees_with_stiff_integrator(self, r1_vsc, r1_vsc_p0):
        # same trajectory from an implicit ODE solve, fully independent of expm
        K = r1_vsc.matrix
        times = (1.0, 100.0, 5000.0)
        traj = propagate(r1_vsc, r1_vsc_p0, TimeGrid(points=times, spacing="log"))
        sol = solve_ivp(
            lambda t, y: K @ y,
            (0.0, times[-1]),
            r1_vsc_p0,
            method="Radau",
            t_eval=times,
            rtol=1e-10,
            atol=1e-13,
            jac=lambda t, y: K,
        )
        assert sol.success
        assert np.abs(traj.state_populations - sol.y.T).max() <= 1e-8

    def test_initial_distribution_validation(self, r1_vsc):
        grid = TimeGrid.linear(0.0, 1.0, 2)
        with pytest.raises(ValueError):
            propagate(r1_vsc, np.ones(3) / 3.0, grid)
        bad_sum = np.zeros(16)
        bad_sum[0] = 0.9
        with pytest.raises(ValueError):
            propagate(r1_vsc, bad_sum, grid)
        signed = np.zeros(16)
        signed[0], signed[1] = 1.5, -0.5
        with pytest.raises(ValueError):
            propagate(r1_vsc, signed, grid)


def expm_oracle(matrix: np.ndarray, p0: np.ndarray, times) -> np.ndarray:
    """exp(K t) p0 by one dense scipy exponential per time point."""
    return np.array([expm(matrix * t) @ p0 for t in times])


@pytest.fixture()
def fallback_calls(monkeypatch):
    """State counts that reach the Taylor fallback, one per propagate call that takes it."""
    calls = []
    taylor = propagate_module._taylor_populations

    def counted(K, p0, times):
        calls.append(len(K))
        return taylor(K, p0, times)

    monkeypatch.setattr(propagate_module, "_taylor_populations", counted)
    return calls


# irreducible, but weak couplings leave slow rates near the roundoff of a dense eigensolver
NEARLY_DECOMPOSABLE = [
    # eigenvalues drift by 6e-13 from rates of 1e-12; unguarded error 1.6e-8
    (
        [(704.2070344674353, 0.0), (-226.66510476062808, 0.0),
         (-414.2845928153539, 1.66630417996875), (2.2080711194703817e-157, 0.0)],
        [("S0", "S1", 0.1, 100.0), ("S1", "S3", 41.578526136508394, 424.5276934797683),
         ("S2", "S3", 29.321713341145575, 142.55459554761154)],
        0.001, 0.0, 150.0,
    ),
    # four near-null eigenvalues; unguarded populations reach -4.6e-9
    (
        [(-706.1698252124872, 0.0), (-866.3651048160182, 2.487196997071779),
         (-471.92719586450096, 0.0001), (876.7965613401532, 2.211958563391229e-133)],
        [("S0", "S2", 47.35116967982097, 135.70125430361375), ("S0", "S3", 0.1, 100.0),
         ("S1", "S3", 36.41855376476217, 383.37351335213566)],
        0.7036634291839128, 0.0001, 216.7681245439037,
    ),
    # slow eigenvectors that keep their stationary component leak 5.5e-9
    (
        [(1.171245818736261e-98, 0.8858044526468571), (395.4114155972468, 0.0),
         (-597.149970443234, 0.0), (1.9, 0.0)],
        [("S0", "S3", 34.6296693714366, 100.0), ("S1", "S2", 0.10000000000000002, 409.755890768015),
         ("S1", "S3", 48.33968756162514, 464.5243275620517)],
        6.3933506891863505, 0.0, 150.0,
    ),
]


def nearly_decomposable(species, couplings, kappa, gamma, temperature):
    """Bare config over species S0.. with (energy, displacement) and (a, b, J, lambda_s) couplings."""
    return config_from_dict(
        {
            "species": [
                {"label": f"S{i}", "energy": e, "displacement": d} for i, (e, d) in enumerate(species)
            ],
            "couplings": [{"pair": [a, b], "J": J, "lambda_s": lam} for a, b, J, lam in couplings],
            "cavity": {"omega_c": 2000.0, "g": 0.0, "kappa": kappa},
            "bath": {"gamma": gamma, "eta": 0.0, "temperature": temperature},
            "regime": "bare",
        }
    )


class TestSpectralPropagator:
    @pytest.mark.parametrize("scenario", ["reaction1", "reaction2", "reaction3"])
    @pytest.mark.parametrize("kind", REGIME_KINDS)
    @pytest.mark.parametrize("omega_c", [None, 1800.0, 2150.0])
    def test_matches_expm_on_bundled_cases(self, request, fallback_calls, scenario, kind, omega_c):
        config = with_regime(request.getfixturevalue(scenario), kind)
        if omega_c is not None:
            config = replace(config, cavity=replace(config.cavity, omega_c=omega_c))
        gen = build_generator(config)
        p0 = initial_distribution(gen.states, config.reactant, config.bath.temperature)
        traj = propagate(gen, p0, config.grid)
        assert fallback_calls == []  # the spectral path served the whole grid
        expected = expm_oracle(gen.matrix, p0, config.grid.points)
        assert np.abs(traj.state_populations - expected).max() <= 1e-10

    def test_random_configs_match_expm(self, fallback_calls):
        # reducible generators (kappa, gamma or eta = 0, uncoupled species)
        # always take the Taylor fallback; irreducible ones take the spectral path
        # unless a guard rejects their eigenbasis
        grid = TimeGrid(points=(0.0, *np.geomspace(0.1, 5.0e4, 40)), spacing="log")
        paths = set()

        @settings(max_examples=60, deadline=None, derandomize=True, database=None)
        @given(configs(), st.sampled_from(REGIME_KINDS))
        def check(raw, kind):
            no_linewidth = raw["cavity"]["kappa"] == 0.0 and raw["bath"]["gamma"] == 0.0
            assume(not (kind == "weak" and no_linewidth))
            config = config_from_dict(dict(raw, regime=kind))
            gen = build_generator(config)
            K = gen.matrix
            p0 = initial_distribution(gen.states, config.reactant, config.bath.temperature)
            fallback_calls.clear()
            traj = propagate(gen, p0, grid)
            # a dense float graph would read its smallest rates as missing edges
            irreducible = connected_components(K != 0.0, connection="strong")[0] == 1
            spectral = fallback_calls == []
            assert irreducible or not spectral
            paths.add(spectral)
            expected = expm_oracle(K, p0, grid.points)
            assert np.abs(traj.state_populations - expected).max() <= 1e-9

        check()
        assert paths == {True, False}

    @pytest.mark.parametrize("species, couplings, kappa, gamma, temperature", NEARLY_DECOMPOSABLE)
    def test_nearly_decomposable_generators_match_expm(
        self, species, couplings, kappa, gamma, temperature
    ):
        config = nearly_decomposable(species, couplings, kappa, gamma, temperature)
        gen = build_generator(config)
        assert connected_components(gen.matrix != 0.0, connection="strong")[0] == 1
        p0 = initial_distribution(gen.states, config.reactant, config.bath.temperature)
        traj = propagate(gen, p0, config.grid)
        expected = expm_oracle(gen.matrix, p0, config.grid.points)
        assert np.abs(traj.state_populations - expected).max() <= 1e-10

    def test_negative_spectral_result_falls_back(self, fallback_calls):
        # the first nearly decomposable generator passes the drift and cond(V) guards,
        # lumped, but its spectral populations turn negative beyond NEGATIVITY_TOL
        config = nearly_decomposable(*NEARLY_DECOMPOSABLE[0])
        gen = build_generator(config)
        p0 = initial_distribution(gen.states, config.reactant, config.bath.temperature)
        traj = propagate(gen, p0, config.grid)
        assert len(fallback_calls) == 1
        expected = expm_oracle(gen.matrix, p0, config.grid.points)
        assert np.abs(traj.state_populations - expected).max() <= 1e-10

    def test_ill_conditioned_eigenbasis_falls_back(self, reaction3, fallback_calls, monkeypatch):
        monkeypatch.setattr(propagate_module, "EIGENBASIS_COND_LIMIT", 1.0)
        config = with_regime(reaction3, "vsc")
        gen = build_generator(config)
        p0 = initial_distribution(gen.states, config.reactant, config.bath.temperature)
        traj = propagate(gen, p0, config.grid)
        assert fallback_calls == [24]
        expected = expm_oracle(gen.matrix, p0, config.grid.points)
        assert np.abs(traj.state_populations - expected).max() <= 1e-10

    def test_eigenvalue_drift_falls_back(self, reaction1, fallback_calls, monkeypatch):
        monkeypatch.setattr(propagate_module, "EIGENVALUE_DRIFT_LIMIT", -np.inf)
        config = with_regime(reaction1, "weak")
        gen = build_generator(config)
        p0 = initial_distribution(gen.states, config.reactant, config.bath.temperature)
        traj = propagate(gen, p0, config.grid)
        assert fallback_calls == [10]
        expected = expm_oracle(gen.matrix, p0, config.grid.points)
        assert np.abs(traj.state_populations - expected).max() <= 1e-10

    def test_transient_state_falls_back(self, fallback_calls):
        # B decays into the absorbing A: every state reaches A.A, but B.B is transient
        k = 0.17
        irreversible = two_species_generator(k)
        gen = replace(irreversible, matrix=irreversible.matrix[::-1, ::-1].copy())
        grid = TimeGrid.linear(0.0, 40.0, 9)
        traj = propagate(gen, np.array([0.0, 0.0, 0.0, 1.0]), grid)
        assert fallback_calls == [3]
        assert traj.species_series("B") == pytest.approx(2.0 * np.exp(-k * np.asarray(grid.points)), rel=1e-12)

    def test_time_zero_returns_p0_exactly(self, r1_vsc, r1_vsc_p0, fallback_calls):
        traj = propagate(r1_vsc, r1_vsc_p0, TimeGrid.linear(0.0, 100.0, 5))
        assert fallback_calls == []
        assert np.array_equal(traj.state_populations[0], r1_vsc_p0)


class TestTaylorFallback:
    @pytest.mark.parametrize("scenario", ["reaction1", "reaction2", "reaction3", "stiff"])
    def test_reducible_generators_match_mpmath(self, request, fallback_calls, scenario):
        # bare kappa = 0 strands the cavity quantum; the stiff config has two closed species
        if scenario == "stiff":
            config = config_from_dict(STIFF_REDUCIBLE)
        else:
            config = with_regime(request.getfixturevalue(scenario), "bare", kappa=0.0)
        gen = build_generator(config)
        p0 = initial_distribution(gen.states, config.reactant, config.bath.temperature)
        t0, doublings = 0.1, 19  # up to 5.2e4 ps, past the default grid
        grid = TimeGrid(points=(0.0, *(t0 * 2.0 ** np.arange(doublings + 1))), spacing="log")
        traj = propagate(gen, p0, grid)
        expected = np.vstack([p0, mpmath_doubling_populations(gen.matrix, p0, t0, doublings)])
        assert np.abs(traj.state_populations - expected).max() <= 1e-13
        default = propagate(gen, p0, config.grid)
        for populations in (traj.state_populations, default.state_populations):
            assert np.abs(populations.sum(axis=1) - 1.0).max() <= 1e-14
        assert len(fallback_calls) == 2

    def test_tiny_populations_keep_relative_precision(self, fallback_calls):
        # each molecule walks S0 -> S1 -> ... -> S11 at rate k and stays there; the two are
        # independent, so p(a, b) = f_a f_b with Poisson weights f_a, as small as 6e-60
        S, k = 12, 1.0
        space = StateSpace(tuple(f"S{i}" for i in range(S)), (), np.zeros((S, S, 1)), ())
        K = np.zeros((S, S, S, S))
        for a in range(S - 1):
            K[a + 1, :, a, :] += k * np.eye(S)
            K[:, a + 1, :, a] += k * np.eye(S)
        K = K.reshape(S * S, S * S)
        np.fill_diagonal(K, -K.sum(axis=0))
        p0 = np.zeros(S * S)
        p0[0] = 1.0
        times = (0.01, 1.0, 30.0)
        traj = propagate(RateMatrix(states=space, matrix=K), p0, TimeGrid(points=times, spacing="log"))
        assert fallback_calls == [S * (S + 1) // 2]
        for t, populations in zip(times, traj.state_populations):
            f = [math.exp(-k * t) * (k * t) ** a / math.factorial(a) for a in range(S + 150)]
            f = np.array([*f[: S - 1], math.fsum(f[S - 1 :])])  # S11 holds the Poisson tail
            np.testing.assert_allclose(populations, np.outer(f, f).ravel(), rtol=1e-13, atol=0.0)


@pytest.fixture()
def core_sizes(monkeypatch):
    """State counts that reach the spectral core, one per propagate call."""
    sizes = []
    spectral = propagate_module._spectral_populations

    def recorded(K, p0, times):
        sizes.append(len(K))
        return spectral(K, p0, times)

    monkeypatch.setattr(propagate_module, "_spectral_populations", recorded)
    return sizes


class TestExchangeLumping:
    @pytest.mark.parametrize(
        "scenario, kind, states, orbits",
        [
            ("reaction1", "bare", 16, 10),
            ("reaction1", "weak", 16, 10),
            ("reaction1", "vsc", 16, 12),
            ("reaction3", "bare", 36, 21),
            ("reaction3", "weak", 36, 21),
            ("reaction3", "vsc", 36, 24),
        ],
    )
    def test_thermal_starts_reach_the_core_as_orbits(
        self, request, core_sizes, fallback_calls, scenario, kind, states, orbits
    ):
        config = with_regime(request.getfixturevalue(scenario), kind)
        gen = build_generator(config)
        p0 = initial_distribution(gen.states, config.reactant, config.bath.temperature)
        assert len(p0) == states
        assert np.array_equal(p0[gen.states.exchange], p0)
        propagate(gen, p0, config.grid)  # test_matches_expm_on_bundled_cases checks the result
        assert core_sizes == [orbits]
        assert fallback_calls == []

    @pytest.mark.parametrize("kind", REGIME_KINDS)
    def test_asymmetric_start_propagates_every_state(
        self, reaction3, core_sizes, fallback_calls, kind
    ):
        config = with_regime(reaction3, kind)
        gen = build_generator(config)
        labels = gen.states.labels()
        p0 = np.zeros(len(labels))
        p0[labels.index("A.B|0")] = 0.7  # molecule 2 has already reacted, molecule 1 not
        p0[labels.index("B.C|0")] = 0.3
        traj = propagate(gen, p0, config.grid)
        assert core_sizes == [36]
        assert fallback_calls == []
        expected = expm_oracle(gen.matrix, p0, config.grid.points)
        assert np.abs(traj.state_populations - expected).max() <= 1e-10

    @pytest.mark.parametrize("scenario", ["reaction1", "reaction2", "reaction3"])
    @pytest.mark.parametrize("kind", REGIME_KINDS)
    def test_run_scenario_output_is_exchange_symmetric(self, request, scenario, kind):
        # p(a.b|v1) == p(b.a|v2) and every other state with its image, bit for bit
        traj = run_scenario(with_regime(request.getfixturevalue(scenario), kind)).trajectory
        labels = traj.states.labels()
        images = [labels.index(swapped_label(label)) for label in labels]
        assert np.array_equal(traj.state_populations[:, images], traj.state_populations)


class TestObservables:
    @staticmethod
    def frozen(rate_matrix, label):
        """One-point trajectory under a zero generator from a delta on ``label``."""
        states = rate_matrix.states
        zero = RateMatrix(states=states, matrix=np.zeros((16, 16)))
        p0 = np.array([1.0 if x == label else 0.0 for x in states.labels()])
        return propagate(zero, p0, TimeGrid(points=(1.0,), spacing="linear"))

    def test_species_population_counts_molecules(self, r1_vsc):
        traj = self.frozen(r1_vsc, "A.B|0")
        assert traj.species_series("B")[0] == 1.0
        assert traj.species_series("A")[0] == 1.0
        assert traj.normalized_series("B")[0] == 0.5
        traj = self.frozen(r1_vsc, "B.B|0")
        assert traj.species_series("B")[0] == 2.0
        assert traj.species_series("A")[0] == 0.0
        assert traj.normalized_series("B")[0] == 1.0

    def test_species_population_validation(self, r1_vsc):
        traj = self.frozen(r1_vsc, "A.B|0")
        with pytest.raises(KeyError):
            traj.species_series("Z")
        with pytest.raises(KeyError):
            traj.normalized_series("Z")

    def test_trajectory_species_accounting(self, r1_vsc, r1_vsc_p0):
        traj = propagate(r1_vsc, r1_vsc_p0, TimeGrid.logarithmic(0.1, 1.0e4, 12))
        assert traj.species_labels == ("A", "B")
        assert np.array_equal(traj.states.counts().sum(axis=1), np.full(16, 2.0))
        total = traj.species_series("A") + traj.species_series("B")
        assert total == pytest.approx(np.full(12, 2.0), abs=1e-9)
        frac = traj.normalized_series("B")
        assert np.all(frac >= -1e-10)
        assert np.all(frac <= 1.0 + 1e-10)
        assert np.all(np.diff(frac) > 0.0)  # product only accumulates here
        with pytest.raises(KeyError):
            traj.species_series("Z")

    def test_clamp_for_output(self):
        raw = np.array([0.3, -5.0e-13, -5.0e-12, 1.0e-15])
        clamped = clamp_for_output(raw)
        assert clamped[0] == 0.3
        assert clamped[1] == 0.0
        assert clamped[2] == -5.0e-12  # beyond roundoff is preserved, not hidden
        assert clamped[3] == 1.0e-15
        assert raw[1] == -5.0e-13  # input untouched


class TestScalingCriterion:
    def test_large_ensemble_not_modifiable(self):
        res = vsc_scaling_criterion(1.0, 1.0e6, 1.0, 1.0)
        assert res.lhs == pytest.approx(1.0e-6, rel=1e-15)
        assert res.rhs == pytest.approx(0.5, rel=1e-15)
        assert res.modifiable is False
        assert res.k_ssa is None

    def test_two_molecules_sit_on_boundary(self):
        res = vsc_scaling_criterion(1.0, 2.0, 5.0, 5.0)
        assert res.lhs == res.rhs == 0.5
        assert res.modifiable is True

    def test_fast_reverse_reaction_is_modifiable(self):
        res = vsc_scaling_criterion(1.0, 1.0e6, 2.0e9, 2.0)
        assert res.rhs == pytest.approx(1.0 / (1.0e9 + 1.0), rel=1e-12)
        assert res.modifiable is True

    def test_steady_state_rate(self):
        res = vsc_scaling_criterion(1.0, 2.0, 3.0, 1.0, k_f=0.004)
        assert res.k_ssa == pytest.approx(0.004 * 0.25, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            vsc_scaling_criterion(1.0, 0.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            vsc_scaling_criterion(-1.0, 2.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            vsc_scaling_criterion(1.0, 2.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            vsc_scaling_criterion(1.0, 2.0, 0.0, 0.0)
