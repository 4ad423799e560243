"""Propagation: time grids, expm evolution, observables, scaling criterion."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from conftest import with_regime
from vsckinetics.config import build_generator
from vsckinetics.propagate import (
    DEFAULT_GRID_END,
    DEFAULT_GRID_POINTS,
    DEFAULT_GRID_START,
    TimeGrid,
    clamp_for_output,
    propagate,
    vsc_scaling_criterion,
)
from vsckinetics.rates import RateMatrix, RegimeSpec
from vsckinetics.states import CompositeState, initial_distribution


def two_state_generator(k: float) -> RateMatrix:
    """Irreversible A -> B at rate k, no vibrations involved."""
    states = (
        CompositeState(0, ("A",), (0,), ("v1",), 0.0),
        CompositeState(1, ("B",), (0,), ("v1",), 0.0),
    )
    matrix = np.array([[-k, 0.0], [k, 0.0]])
    return RateMatrix(states=states, matrix=matrix, regime=RegimeSpec("bare", 0.0))


@pytest.fixture(scope="module")
def r1_vsc(reaction1):
    return build_generator(with_regime(reaction1, "vsc"))


@pytest.fixture(scope="module")
def r1_vsc_p0(r1_vsc, reaction1):
    return initial_distribution(r1_vsc.states, "A", reaction1.bath.temperature)


class TestTimeGrid:
    def test_default(self):
        grid = TimeGrid.default()
        assert len(grid.points) == DEFAULT_GRID_POINTS
        assert grid.points[0] == DEFAULT_GRID_START
        assert grid.points[-1] == pytest.approx(DEFAULT_GRID_END, rel=1e-12)
        assert grid.spacing == "log"
        assert grid.t_end == grid.points[-1]

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
        gen = two_state_generator(0.0)
        p0 = np.array([0.3, 0.7])
        traj = propagate(gen, p0, TimeGrid.linear(0.0, 100.0, 5))
        assert np.abs(traj.state_populations - p0).max() == 0.0

    def test_matches_closed_form_decay(self):
        k = 0.17
        gen = two_state_generator(k)
        grid = TimeGrid.linear(0.0, 40.0, 9)
        traj = propagate(gen, np.array([1.0, 0.0]), grid)
        expected = np.exp(-k * traj.times)
        assert traj.state_populations[:, 0] == pytest.approx(expected, rel=1e-12)
        assert traj.state_populations[:, 1] == pytest.approx(1.0 - expected, rel=1e-10)
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


class TestObservables:
    @staticmethod
    def frozen(rate_matrix, label):
        """One-point trajectory under a zero generator from a delta on ``label``."""
        states = rate_matrix.states
        zero = RateMatrix(states=states, matrix=np.zeros((16, 16)), regime=rate_matrix.regime)
        p0 = np.array([1.0 if s.label == label else 0.0 for s in states])
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
        assert traj.n_molecules == 2
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
