"""Propagation: time grids, spectral evolution against expm, observables, scaling criterion."""

import math
import tracemalloc
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.sparse.csgraph import connected_components

from conftest import STIFF_REDUCIBLE, mpmath_doubling_populations, swapped_label, with_regime
from test_properties import OMEGA_V, configs
from vsckinetics import propagate as propagate_module
from vsckinetics.closed_forms import NumericalError, vsc_scaling_criterion
from vsckinetics.config import (
    DEFAULT_GRID_POINTS,
    MAX_GRID_POINTS,
    GridSpec,
    build_generator,
    config_from_dict,
    run_scenario,
)
from vsckinetics.propagate import (
    EIGENBASIS_COND_LIMIT,
    TimeGrid,
    clamp_for_output,
    propagate,
)
from vsckinetics.eigenmodes import REGIME_KINDS
from vsckinetics.rates import RateMatrix
from vsckinetics.states import StateSpace, initial_distribution
from vsckinetics.units import thermal_energy


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


def bundled_case(request, scenario: str, kind: str, omega_c=None):
    """A bundled config in another regime, its cavity optionally moved to ``omega_c`` (cm^-1)."""
    config = with_regime(request.getfixturevalue(scenario), kind)
    if omega_c is None:
        return config
    return replace(config, cavity=replace(config.cavity, omega_c=omega_c))


def boltzmann_weights(rate_matrix: RateMatrix) -> np.ndarray:
    """exp(-(E - E_min)/kT) of every state at the generator's temperature."""
    E = rate_matrix.states.energies.ravel()
    return np.exp(-(E - E.min()) / thermal_energy(rate_matrix.temperature))


def orbit_count(rate_matrix: RateMatrix, p0: np.ndarray) -> int:
    """How many exchange orbits ``propagate`` evaluates the chain of ``rate_matrix`` on from ``p0``."""
    return len(propagate_module._lumped_start(rate_matrix.states, p0, rate_matrix.temperature).members)


def start_of(p0: np.ndarray):
    """A start that carries only p0, for calling a path on a hand-made lumped generator."""
    return propagate_module._Start(None, None, None, None, p0=p0, pi=None, sizes=None)


def spoiled(path, spoil):
    """``path`` with ``spoil`` applied to every result it serves; a decline stays its name."""
    return lambda *args: result if isinstance(result := path(*args), str) else spoil(result)


def drive_negative(populations: np.ndarray) -> np.ndarray:
    """Move state 0's probability and 1e-6 more onto state 1: sums hold, state 0 turns negative."""
    moved = populations.copy()
    moved[:, 1] += moved[:, 0] + 1e-6
    moved[:, 0] = -1e-6
    return moved


# spoils of a core result and the messages of the checks that catch them, whatever the orbit sizes
CORE_SPOILS = [
    (lambda p: np.where(p == p.max(), np.nan, p), "^propagation produced non-finite populations$"),
    # its row sums to inf, not NaN, and fails the leak test: the non-finite message still comes first
    (lambda p: np.where(p == p.max(), np.inf, p), "^propagation produced non-finite populations$"),
    (lambda p: p * (1.0 + 1e-6), r"^probability leaked by 1\.000e-06 \(tolerance 1e-09\)$"),
    (drive_negative, "^population went negative: -1.000e-06$"),
]
CORE_SPOIL_IDS = ["non-finite", "infinite", "leak", "negative"]


def assert_spoiled_core_raises(monkeypatch, rate_matrix, p0, spoil, message):
    paths = tuple((name, spoiled(path, spoil)) for name, path in propagate_module._PATHS)  # whichever serves
    monkeypatch.setattr(propagate_module, "_PATHS", paths)
    with pytest.raises(NumericalError, match=message):
        propagate(rate_matrix, p0, GridSpec("log", 0.1, 100.0, 5).time_grid)


@pytest.fixture(scope="module")
def r1_vsc(reaction1):
    return build_generator(with_regime(reaction1, "vsc"))


@pytest.fixture(scope="module")
def r1_vsc_p0(r1_vsc, reaction1):
    return initial_distribution(r1_vsc.states, "A", reaction1.bath.temperature)


class TestTimeGrid:
    def test_default(self):
        grid = config_from_dict({"species": [{"label": "A"}]}).grid
        assert grid == GridSpec("log", 0.1, 5.0e4, DEFAULT_GRID_POINTS)
        assert grid.time_grid.points == tuple(np.geomspace(0.1, 5.0e4, DEFAULT_GRID_POINTS))
        assert grid.time_grid.points[-1] == 5.0e4

    def test_logarithmic_has_constant_ratio(self):
        grid = GridSpec("log", 0.1, 1000.0, 9).time_grid
        ratios = [b / a for a, b in zip(grid.points, grid.points[1:])]
        assert ratios == pytest.approx([ratios[0]] * len(ratios), rel=1e-12)

    def test_linear_has_constant_step(self):
        grid = GridSpec("linear", 0.0, 10.0, 6).time_grid
        steps = [b - a for a, b in zip(grid.points, grid.points[1:])]
        assert steps == pytest.approx([2.0] * 5, rel=1e-12)

    @pytest.mark.parametrize(
        "spec, message",
        [
            (("log", 0.0, 10.0, 5), "grid.start must be > 0 on a log grid, got 0.0"),
            (("log", 1.0, 1.0, 5), r"grid.end must be > grid.start \(1.0\), got 1.0"),
            (("linear", 0.0, 10.0, 1), r"grid.points must be in 2..100000, got 1"),
            (("log", 1.0, math.inf, 5), "grid.end must be finite, got inf"),
            # bounds whose span would overflow a double: a grid starts at t >= 0, so its span never does
            (("linear", -1e308, 1e308, 3), r"grid.start must be >= 0, got -1e\+308"),
            (("geometric", 1.0, 2.0, 2), "grid.spacing must be 'log' or 'linear', got 'geometric'"),
            (("log", 1.0, 2.0, 2.0), "grid.points must be an integer, got 2.0"),
        ],
    )
    def test_spec_validation(self, spec, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            GridSpec(*spec)

    def test_validation(self):
        with pytest.raises(ValueError, match="^time grid needs at least one point$"):
            TimeGrid(points=())
        with pytest.raises(ValueError, match="^time grid must be strictly increasing$"):
            TimeGrid(points=(1.0, 1.0))
        with pytest.raises(ValueError, match=r"^time grid must start at t >= 0$"):
            TimeGrid(points=(-1.0, 1.0))


class TestPropagate:
    def test_zero_generator_is_stationary(self):
        gen = two_species_generator(0.0)
        p0 = np.array([0.1, 0.2, 0.3, 0.4])
        traj = propagate(gen, p0, GridSpec("linear", 0.0, 100.0, 5).time_grid)
        assert np.abs(traj.state_populations - p0).max() == 0.0

    def test_matches_closed_form_decay(self):
        k = 0.17
        gen = two_species_generator(k)
        grid = GridSpec("linear", 0.0, 40.0, 9).time_grid
        traj = propagate(gen, np.array([1.0, 0.0, 0.0, 0.0]), grid)
        expected = np.exp(-k * np.asarray(grid.points))
        assert traj.species_series("A") == pytest.approx(2.0 * expected, rel=1e-12)
        assert traj.species_series("B") == pytest.approx(2.0 * (1.0 - expected), rel=1e-10)
        assert traj.state_populations[0, 0] == 1.0  # t = 0 reproduces p0 exactly

    def test_conserves_probability_and_positivity(self, r1_vsc, r1_vsc_p0):
        grid = GridSpec("log", 0.1, 5.0e4, 25).time_grid
        traj = propagate(r1_vsc, r1_vsc_p0, grid)
        assert np.abs(traj.state_populations.sum(axis=1) - 1.0).max() <= 1e-9
        assert traj.state_populations.min() >= -1e-10

    def test_semigroup_property(self, r1_vsc, r1_vsc_p0):
        t1, t2 = 7.3, 12.9
        direct = propagate(r1_vsc, r1_vsc_p0, TimeGrid(points=(t1 + t2,)))
        staged = propagate(r1_vsc, r1_vsc_p0, TimeGrid(points=(t1,)))
        restart = propagate(
            r1_vsc,
            staged.state_populations[0] / staged.state_populations[0].sum(),
            TimeGrid(points=(t2,)),
        )
        assert np.abs(direct.state_populations[0] - restart.state_populations[0]).max() <= 1e-9

    def test_agrees_with_stiff_integrator(self, r1_vsc, r1_vsc_p0):
        # same trajectory from an implicit ODE solve, fully independent of expm
        K = r1_vsc.matrix
        times = (1.0, 100.0, 5000.0)
        traj = propagate(r1_vsc, r1_vsc_p0, TimeGrid(points=times))
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

    @pytest.mark.parametrize("spoil, message", CORE_SPOILS, ids=CORE_SPOIL_IDS)
    def test_bad_core_results_raise(self, monkeypatch, r1_vsc, r1_vsc_p0, spoil, message):
        assert_spoiled_core_raises(monkeypatch, r1_vsc, r1_vsc_p0, spoil, message)

    @pytest.mark.parametrize("spoil, message", CORE_SPOILS, ids=CORE_SPOIL_IDS)
    def test_bad_core_results_raise_where_each_state_is_its_own_orbit(self, monkeypatch, r1_vsc, spoil, message):
        # the checks read orbit shares: from a start the exchange changes, each share is one state's
        p0 = np.zeros(len(r1_vsc.states))
        p0[r1_vsc.states.labels().index("A.B|0")] = 1.0
        assert (p0[r1_vsc.states.exchange] != p0).any()
        assert propagate(r1_vsc, p0, GridSpec("log", 0.1, 100.0, 5).time_grid).state_populations.flags.f_contiguous
        assert_spoiled_core_raises(monkeypatch, r1_vsc, p0, spoil, message)

    def test_a_shared_start_propagates_bit_for_bit(self, r1_vsc, r1_vsc_p0, reaction1):
        grid = GridSpec("log", 0.1, 100.0, 5).time_grid
        start = propagate_module._lumped_start(r1_vsc.states, r1_vsc_p0, r1_vsc.temperature)
        for _ in range(2):  # a start is read, never written
            shared = propagate(r1_vsc, start, grid).state_populations
            assert shared.tobytes() == propagate(r1_vsc, r1_vsc_p0, grid).state_populations.tobytes()
        bare = build_generator(with_regime(reaction1, "bare"))
        with pytest.raises(ValueError, match="^the start was lumped for other states$"):
            propagate(bare, start, grid)

    def test_initial_distribution_validation(self, r1_vsc):
        grid = GridSpec("linear", 0.0, 1.0, 2).time_grid
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
    def test_matches_expm_on_bundled_cases(self, request, scenario, kind, omega_c):
        config = with_regime(request.getfixturevalue(scenario), kind)
        if omega_c is not None:
            config = replace(config, cavity=replace(config.cavity, omega_c=omega_c))
        gen = build_generator(config)
        p0 = initial_distribution(gen.states, config.reactant, config.bath.temperature)
        traj = propagate(gen, p0, config.grid.time_grid)
        assert traj.path in ("symmetric", "eig")  # an eigen path served the whole grid
        expected = expm_oracle(gen.matrix, p0, config.grid.time_grid.points)
        assert np.abs(traj.state_populations - expected).max() <= 1e-10

    def test_random_configs_match_expm(self):
        # reducible generators (kappa, gamma or eta = 0, uncoupled species)
        # always take the Taylor fallback; irreducible ones take the spectral path
        # unless a guard rejects their eigenbasis
        grid = TimeGrid(points=(0.0, *np.geomspace(0.1, 5.0e4, 40)))
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
            traj = propagate(gen, p0, grid)
            # a dense float graph would read its smallest rates as missing edges
            irreducible = connected_components(K != 0.0, connection="strong")[0] == 1
            spectral = traj.path != "taylor"
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
        traj = propagate(gen, p0, config.grid.time_grid)
        expected = expm_oracle(gen.matrix, p0, config.grid.time_grid.points)
        assert np.abs(traj.state_populations - expected).max() <= 1e-10

    def test_negative_spectral_result_falls_back(self):
        # the first nearly decomposable generator passes the drift and cond(V) guards,
        # lumped, but its spectral populations turn negative beyond NEGATIVITY_TOL
        config = nearly_decomposable(*NEARLY_DECOMPOSABLE[0])
        gen = build_generator(config)
        p0 = initial_distribution(gen.states, config.reactant, config.bath.temperature)
        traj = propagate(gen, p0, config.grid.time_grid)
        assert traj.path == "taylor"
        assert traj.declines == ("symmetric: π range", "eig: negative or NaN")
        expected = expm_oracle(gen.matrix, p0, config.grid.time_grid.points)
        assert np.abs(traj.state_populations - expected).max() <= 1e-10

    def test_ill_conditioned_eigenbasis_falls_back(self, request, monkeypatch):
        # the detuned Purcell exchange breaks detailed balance, so eig serves this generator
        monkeypatch.setattr(propagate_module, "EIGENBASIS_COND_LIMIT", 1.0)
        config = bundled_case(request, "reaction1", "weak", 1800.0)
        gen = build_generator(config)
        assert not propagate_module._balanced(gen.matrix, boltzmann_weights(gen))
        p0 = initial_distribution(gen.states, config.reactant, config.bath.temperature)
        traj = propagate(gen, p0, config.grid.time_grid)
        assert (traj.path, traj.declines) == ("taylor", ("symmetric: π range", "eig: cond(V)"))
        assert orbit_count(gen, p0) == 10
        expected = expm_oracle(gen.matrix, p0, config.grid.time_grid.points)
        assert np.abs(traj.state_populations - expected).max() <= 1e-10

    def test_eigenvalue_drift_falls_back(self, request, monkeypatch):
        monkeypatch.setattr(propagate_module, "EIGENVALUE_DRIFT_LIMIT", -np.inf)
        config = bundled_case(request, "reaction1", "weak", 1800.0)
        gen = build_generator(config)
        assert not propagate_module._balanced(gen.matrix, boltzmann_weights(gen))  # eig serves it
        p0 = initial_distribution(gen.states, config.reactant, config.bath.temperature)
        traj = propagate(gen, p0, config.grid.time_grid)
        assert (traj.path, traj.declines) == ("taylor", ("symmetric: unbalanced", "eig: drift"))
        assert orbit_count(gen, p0) == 10
        expected = expm_oracle(gen.matrix, p0, config.grid.time_grid.points)
        assert np.abs(traj.state_populations - expected).max() <= 1e-10

    def test_transient_state_falls_back(self):
        # B decays into the absorbing A: every state reaches A.A, but B.B is transient
        k = 0.17
        irreversible = two_species_generator(k)
        gen = replace(irreversible, matrix=irreversible.matrix[::-1, ::-1].copy())
        grid = GridSpec("linear", 0.0, 40.0, 9).time_grid
        p0 = np.array([0.0, 0.0, 0.0, 1.0])
        traj = propagate(gen, p0, grid)
        assert (traj.path, traj.declines) == ("taylor", ("symmetric: no temperature", "eig: reducible"))
        assert orbit_count(gen, p0) == 3
        assert traj.species_series("B") == pytest.approx(2.0 * np.exp(-k * np.asarray(grid.points)), rel=1e-12)

    def test_time_zero_returns_p0_exactly(self, r1_vsc, r1_vsc_p0):
        traj = propagate(r1_vsc, r1_vsc_p0, GridSpec("linear", 0.0, 100.0, 5).time_grid)
        assert traj.path == "symmetric"
        assert np.array_equal(traj.state_populations[0], r1_vsc_p0)

    @pytest.mark.parametrize(
        "kind, omega_c, kappa, path",
        [("vsc", None, None, "symmetric"), ("weak", 1800.0, None, "eig"), ("bare", None, 0.0, "taylor")],
        ids=["symmetric", "eig", "taylor"],
    )
    def test_first_row_is_p0_bit_for_bit_only_on_a_grid_from_zero(self, request, kind, omega_c, kappa, path):
        config = bundled_case(request, "reaction1", kind, omega_c)
        if kappa is not None:
            config = with_regime(config, kind, kappa=kappa)
        gen = build_generator(config)
        p0 = initial_distribution(gen.states, config.reactant, config.bath.temperature)
        runs = [propagate(gen, p0, TimeGrid(points)) for points in ((0.0, 500.0, 1000.0), (500.0, 1000.0))]
        assert [run.path for run in runs] == [path, path]
        from_zero, later = (run.state_populations for run in runs)
        assert from_zero[0].tobytes() == p0.tobytes()
        # from t = 500 ps the first row is evaluated: it has moved away from p0, to p(500 ps)
        assert np.abs(later[0] - p0).max() > 1e-4
        assert np.abs(later[0] - from_zero[1]).max() <= 1e-12


class TestTaylorFallback:
    @pytest.mark.parametrize("scenario", ["reaction1", "reaction2", "reaction3", "stiff"])
    def test_reducible_generators_match_mpmath(self, request, scenario):
        # bare kappa = 0 strands the cavity quantum; the stiff config has two closed species
        if scenario == "stiff":
            config = config_from_dict(STIFF_REDUCIBLE)
        else:
            config = with_regime(request.getfixturevalue(scenario), "bare", kappa=0.0)
        gen = build_generator(config)
        p0 = initial_distribution(gen.states, config.reactant, config.bath.temperature)
        t0, doublings = 0.1, 19  # up to 5.2e4 ps, past the default grid
        grid = TimeGrid(points=(0.0, *(t0 * 2.0 ** np.arange(doublings + 1))))
        expected = np.vstack([p0, mpmath_doubling_populations(gen.matrix, p0, t0, doublings)])
        traj = propagate(gen, p0, grid)
        assert np.abs(traj.state_populations - expected).max() <= 1e-13
        default = propagate(gen, p0, config.grid.time_grid)
        for populations in (traj.state_populations, default.state_populations):
            assert np.abs(populations.sum(axis=1) - 1.0).max() <= 1e-14
        assert traj.path == default.path == "taylor"

    def test_reducible_generator_pays_for_no_general_eigensolver(self, reaction1, monkeypatch):
        # bare kappa = 0: GTH finds the lumped chain reducible before eig decomposes it
        config = with_regime(reaction1, "bare", kappa=0.0)
        gen = build_generator(config)
        p0 = initial_distribution(gen.states, config.reactant, config.bath.temperature)
        eig_sizes = []
        eig = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda K: eig_sizes.append(len(K)) or eig(K))
        traj = propagate(gen, p0, config.grid.time_grid)
        assert (traj.path, traj.declines[-1]) == ("taylor", "eig: reducible")
        assert eig_sizes == []

    def test_tiny_populations_keep_relative_precision(self):
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
        chain = RateMatrix(states=space, matrix=K)
        traj = propagate(chain, p0, TimeGrid(points=times))
        assert traj.path == "taylor"
        assert orbit_count(chain, p0) == S * (S + 1) // 2
        for t, populations in zip(times, traj.state_populations):
            f = [math.exp(-k * t) * (k * t) ** a / math.factorial(a) for a in range(S + 150)]
            f = np.array([*f[: S - 1], math.fsum(f[S - 1 :])])  # S11 holds the Poisson tail
            np.testing.assert_allclose(populations, np.outer(f, f).ravel(), rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("alpha_t_end", [7e4, 1e20, 1e100, 1e165])
    def test_two_states_match_the_closed_form_past_2_to_the_53_steps(self, alpha_t_end):
        # 0 -> 1 at rate a, 1 -> 0 at b = 0.37 a: p_1(t) = a (1 - e^-st) / s, s = a + b, alpha = a, and
        # t = (q + r) h with alpha h < 1/2, so q = t / h passes 2^53 by alpha t = 4.5e15
        a = alpha_t_end / 5e4
        b = 0.37 * a
        K = np.array([[-a, b], [a, -b]])
        times = np.array([0.0, *np.geomspace(1e-2 / a, 5e4, 40)])
        populations = propagate_module._taylor_populations(K, start_of(np.array([1.0, 0.0])), times)
        s = a + b
        expected = np.column_stack([(b + a * np.exp(-s * times)) / s, -a * np.expm1(-s * times) / s])
        assert populations[0].tobytes() == np.array([1.0, 0.0]).tobytes()
        np.testing.assert_allclose(populations[1:], expected[1:], rtol=1e-14, atol=0.0)

    def test_subnormal_rates_take_the_largest_finite_step(self):
        # out-rates below 2^-1022, as gamma = 1e-310 under bare kappa = 0 gives: h stops at 2^1023
        a, b = 3.0 * 2.0**-1030, 2.0**-1030  # s = a + b = 2^-1028, a / s = 3 / 4
        K = np.array([[-a, b], [a, -b]])
        times = np.array([0.0, 1e3, 5e4, 1e300])
        populations = propagate_module._taylor_populations(K, start_of(np.array([1.0, 0.0])), times)
        decay = -np.expm1(-(a + b) * times)
        expected = np.column_stack([1.0 - 0.75 * decay, 0.75 * decay])
        np.testing.assert_allclose(populations, expected, rtol=1e-14, atol=0.0)

    def test_memory_is_two_buffers_of_the_grid(self, reaction3):
        # bare kappa = 0 on the longest grid a config accepts: the chain works in two (T, n) buffers
        config = with_regime(reaction3, "bare", kappa=0.0)
        gen = build_generator(config)
        start = propagate_module._lumped_start(
            gen.states, initial_distribution(gen.states, config.reactant, config.bath.temperature), gen.temperature
        )
        K = start.lump @ gen.matrix.take(start.members, axis=1)
        times = replace(config.grid, points=MAX_GRID_POINTS).time_grid.times
        tracemalloc.start()
        try:
            populations = propagate_module._taylor_populations(K, start, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert populations.shape == (MAX_GRID_POINTS, 21)
        assert peak <= 3 * populations.nbytes


# every bundled generator balances but a detuned weak one; reaction3 vsc at omega_c = 2150
# has Boltzmann weights spanning sqrt(max / min) = 1.02e8, beyond EIGENBASIS_COND_LIMIT
REVERSIBLE_BUNDLED = [
    (scenario, kind, omega_c)
    for scenario in ("reaction1", "reaction2", "reaction3")
    for kind, omega_c in [*product(("bare", "vsc"), (None, 1800.0, 2150.0)), ("weak", None)]
    if (scenario, kind, omega_c) != ("reaction3", "vsc", 2150.0)
]


class TestReversiblePropagator:
    @pytest.mark.parametrize("scenario, kind, omega_c", REVERSIBLE_BUNDLED)
    def test_matches_mpmath_on_bundled_cases(self, request, scenario, kind, omega_c):
        config = bundled_case(request, scenario, kind, omega_c)
        gen = build_generator(config)
        p0 = initial_distribution(gen.states, config.reactant, config.bath.temperature)
        t0, doublings = 0.1, 19  # up to 5.2e4 ps, past the default grid
        grid = TimeGrid(points=(0.0, *(t0 * 2.0 ** np.arange(doublings + 1))))
        traj = propagate(gen, p0, grid)
        assert (traj.path, traj.declines) == ("symmetric", ())
        expected = np.vstack([p0, mpmath_doubling_populations(gen.matrix, p0, t0, doublings)])
        assert np.abs(traj.state_populations - expected).max() <= 5e-11

    def test_config_generators_balance(self):
        # every rate pairs by detailed balance but the Purcell exchange of a detuned weak cavity
        @settings(max_examples=100, deadline=None, derandomize=True, database=None)
        @given(configs(), st.sampled_from(REGIME_KINDS))
        def check(raw, kind):
            no_linewidth = raw["cavity"]["kappa"] == 0.0 and raw["bath"]["gamma"] == 0.0
            assume(not (kind == "weak" and no_linewidth))
            config = config_from_dict(dict(raw, regime=kind))
            gen = build_generator(config)
            assert gen.temperature == config.bath.temperature
            detuned = raw["cavity"]["g"] != 0.0 and raw["cavity"]["omega_c"] != OMEGA_V
            if not (kind == "weak" and detuned):
                assert propagate_module._balanced(gen.matrix, boltzmann_weights(gen))

        check()

    def test_zero_generator_declines(self, r1_vsc, r1_vsc_p0):
        # every eigenvalue is 0, so the second one is not resolved
        zero = RateMatrix(states=r1_vsc.states, matrix=np.zeros((16, 16)), temperature=298.0)
        traj = propagate(zero, r1_vsc_p0, GridSpec("linear", 0.0, 100.0, 5).time_grid)
        assert (traj.path, traj.declines) == ("taylor", ("symmetric: second mode unresolved", "eig: reducible"))
        assert orbit_count(zero, r1_vsc_p0) == 12
        assert np.abs(traj.state_populations - r1_vsc_p0).max() == 0.0
        # a single state has no second eigenvalue at all
        single = RateMatrix(StateSpace(("A",), (), np.zeros((1, 1, 1)), ()), np.zeros((1, 1)), 298.0)
        traj = propagate(single, np.ones(1), GridSpec("linear", 0.0, 100.0, 5).time_grid)
        assert traj.declines == ("symmetric: second mode unresolved",)
        assert np.array_equal(traj.state_populations, np.ones((5, 1)))

    @pytest.mark.parametrize("scenario, orbits", [("reaction1", 10), ("reaction2", 10), ("reaction3", 21)])
    def test_reducible_balanced_generator_declines(self, request, scenario, orbits):
        # bare kappa = 0 balances, but its stranded cavity quantum adds a second null eigenvalue
        config = with_regime(request.getfixturevalue(scenario), "bare", kappa=0.0)
        gen = build_generator(config)
        assert propagate_module._balanced(gen.matrix, boltzmann_weights(gen))
        p0 = initial_distribution(gen.states, config.reactant, config.bath.temperature)
        traj = propagate(gen, p0, config.grid.time_grid)  # test_reducible_generators_match_mpmath checks the result
        assert (traj.path, traj.declines) == ("taylor", ("symmetric: second mode unresolved", "eig: reducible"))
        assert orbit_count(gen, p0) == orbits

    def test_wide_boltzmann_range_declines(self, request):
        config = bundled_case(request, "reaction3", "vsc", 2150.0)
        gen = build_generator(config)
        pi = boltzmann_weights(gen)
        assert propagate_module._balanced(gen.matrix, pi)
        assert np.sqrt(pi.max() / pi.min()) > EIGENBASIS_COND_LIMIT
        p0 = initial_distribution(gen.states, config.reactant, config.bath.temperature)
        traj = propagate(gen, p0, config.grid.time_grid)
        assert (traj.path, traj.declines) == ("eig", ("symmetric: π range",))
        assert orbit_count(gen, p0) == 24
        expected = expm_oracle(gen.matrix, p0, config.grid.time_grid.points)
        assert np.abs(traj.state_populations - expected).max() <= 1e-10

    def test_rate_matrix_without_temperature_takes_the_general_path(self, r1_vsc, r1_vsc_p0):
        grid = GridSpec("log", 0.1, 5.0e4, 25).time_grid
        balanced = propagate(r1_vsc, r1_vsc_p0, grid)
        assert (balanced.path, balanced.declines) == ("symmetric", ())
        hand_built = replace(r1_vsc, temperature=None)
        general = propagate(hand_built, r1_vsc_p0, grid)
        # a hand-built matrix claims no balance
        assert (general.path, general.declines) == ("eig", ("symmetric: no temperature",))
        assert orbit_count(r1_vsc, r1_vsc_p0) == orbit_count(hand_built, r1_vsc_p0) == 12
        assert np.abs(general.state_populations - balanced.state_populations).max() <= 1e-10


# a trigger for each decline name: scenario (None: two_species_generator), regime kind, config changes,
# limits patched in propagate, and the path and declines that result
KAPPA_0 = ("reaction1", "bare", {"kappa": 0.0}, {}, "taylor", ("symmetric: second mode unresolved", "eig: reducible"))
HUGE_GAMMA = ("reaction1", "bare", {"gamma": 1e155}, {}, "taylor", ("symmetric: rate past 1e154", "eig: rate past 1e154"))
DETUNED = ("reaction1", "weak", {"omega_c": 1800.0})
DECLINE_TRIGGERS = {
    "symmetric: no temperature": (None, None, {}, {}, "taylor", ("symmetric: no temperature", "eig: reducible")),
    "symmetric: rate past 1e154": HUGE_GAMMA,
    "symmetric: π range": ("reaction3", "bare", {"temperature": 100.0}, {}, "eig", ("symmetric: π range",)),
    "symmetric: unbalanced": (*DETUNED, {}, "eig", ("symmetric: unbalanced",)),
    "symmetric: second mode unresolved": KAPPA_0,
    # with the π-range guard raised, the symmetric reconstruction reaches -25 at 77 K
    "symmetric: negative or NaN": (
        "reaction3", "vsc", {"temperature": 77.0}, {"EIGENBASIS_COND_LIMIT": 1e31}, "eig", ("symmetric: negative or NaN",)
    ),
    "eig: reducible": KAPPA_0,
    "eig: drift": (*DETUNED, {"EIGENVALUE_DRIFT_LIMIT": -np.inf}, "taylor", ("symmetric: unbalanced", "eig: drift")),
    "eig: cond(V)": (*DETUNED, {"EIGENBASIS_COND_LIMIT": 1.0}, "taylor", ("symmetric: π range", "eig: cond(V)")),
    "eig: rate past 1e154": HUGE_GAMMA,
    "eig: negative or NaN": (
        "reaction1", "bare", {"gamma": 1e30}, {}, "taylor", ("symmetric: second mode unresolved", "eig: negative or NaN")
    ),
}


class TestPathRecord:
    @pytest.mark.parametrize("name", DECLINE_TRIGGERS)
    def test_each_decline_is_reached_and_recorded(self, request, monkeypatch, name):
        scenario, kind, changes, limits, path, declines = DECLINE_TRIGGERS[name]
        for limit, value in limits.items():
            monkeypatch.setattr(propagate_module, limit, value)
        if scenario is None:
            gen, p0 = two_species_generator(0.17), np.array([1.0, 0.0, 0.0, 0.0])
            grid = GridSpec("linear", 0.0, 40.0, 9).time_grid
        else:
            changes = dict(changes)
            config = bundled_case(request, scenario, kind, changes.pop("omega_c", None))
            if "temperature" in changes:
                config = replace(config, bath=replace(config.bath, temperature=changes.pop("temperature")))
            config = with_regime(config, kind, **changes)
            gen, grid = build_generator(config), config.grid.time_grid
            p0 = initial_distribution(gen.states, config.reactant, config.bath.temperature)
        traj = propagate(gen, p0, grid)
        assert name in traj.declines
        assert (traj.path, traj.declines) == (path, declines)


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
    def test_thermal_starts_reach_the_core_as_orbits(self, request, scenario, kind, states, orbits):
        config = with_regime(request.getfixturevalue(scenario), kind)
        gen = build_generator(config)
        p0 = initial_distribution(gen.states, config.reactant, config.bath.temperature)
        assert len(p0) == states
        assert np.array_equal(p0[gen.states.exchange], p0)
        traj = propagate(gen, p0, config.grid.time_grid)  # test_matches_expm_on_bundled_cases checks the result
        assert traj.path in ("symmetric", "eig")
        assert orbit_count(gen, p0) == orbits

    @pytest.mark.parametrize("kind", REGIME_KINDS)
    def test_asymmetric_start_propagates_every_state(self, reaction3, kind):
        config = with_regime(reaction3, kind)
        gen = build_generator(config)
        labels = gen.states.labels()
        p0 = np.zeros(len(labels))
        p0[labels.index("A.B|0")] = 0.7  # molecule 2 has already reacted, molecule 1 not
        p0[labels.index("B.C|0")] = 0.3
        traj = propagate(gen, p0, config.grid.time_grid)
        assert traj.path in ("symmetric", "eig")
        assert orbit_count(gen, p0) == 36
        expected = expm_oracle(gen.matrix, p0, config.grid.time_grid.points)
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
        return propagate(zero, p0, TimeGrid(points=(1.0,)))

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
        traj = propagate(r1_vsc, r1_vsc_p0, GridSpec("log", 0.1, 1.0e4, 12).time_grid)
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

    @pytest.mark.parametrize("k_r, k_d, rhs", [(1e308, 1e308, 0.5), (1.5e308, 0.5e308, 0.25), (1.7e308, 1e307, 1 / 18)])
    def test_rates_whose_sum_overflows(self, k_r, k_d, rhs):
        # k_r + k_d is past the largest double; the branching fraction is not
        res = vsc_scaling_criterion(0.1, 1.0, k_r, k_d)
        assert res.rhs == pytest.approx(rhs, rel=1e-15)
        assert res.modifiable is (0.1 >= rhs)

    def test_finite_sum_keeps_the_formula(self):
        for k_r, k_d in ((3.0, 1.0), (0.1, 0.7), (8.9e307, 8.9e307)):
            assert vsc_scaling_criterion(1.0, 2.0, k_r, k_d).rhs == k_d / (k_r + k_d)

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
