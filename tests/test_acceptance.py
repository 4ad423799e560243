"""End-to-end acceptance checks: equilibrium physics, regime trends, cross-checks.

Each test prints a single verdict line so the whole battery reads as a
ten-point checklist. Trajectories run on the default logarithmic grid and are
shared across tests through module-scoped fixtures.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import detailed_balance_worst, displacement_oracle, kmc_state_counts, with_regime
from vsckinetics.config import build_generator, run_scenario
from vsckinetics.eigenmodes import build_mode_basis
from vsckinetics.propagate import TimeGrid, propagate, vsc_scaling_criterion
from vsckinetics.rates import assemble_rate_matrix, displacement_matrix_element
from vsckinetics.states import initial_distribution
from vsckinetics.units import thermal_energy

REGIMES = ("bare", "weak", "vsc")


def report(capsys, ok: bool, number: int, title: str, detail: str) -> None:
    with capsys.disabled():
        print(f"[acceptance {number:02d}] {title}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{title}: {detail}"


def crossing_time(t: np.ndarray, y: np.ndarray, level: float, rising: bool = True) -> float:
    hit = np.nonzero(y >= level)[0] if rising else np.nonzero(y <= level)[0]
    k = int(hit[0])
    if k == 0:
        return float(t[0])
    t0, t1, y0, y1 = t[k - 1], t[k], y[k - 1], y[k]
    return float(t0 + (level - y0) * (t1 - t0) / (y1 - y0))


def value_at(t: np.ndarray, y: np.ndarray, t_query: float) -> float:
    return float(np.interp(t_query, t, y))


@pytest.fixture(scope="module")
def r1_runs(reaction1):
    return {kind: run_scenario(with_regime(reaction1, kind), label=kind) for kind in REGIMES}


@pytest.fixture(scope="module")
def r2_runs(reaction2):
    return {kind: run_scenario(with_regime(reaction2, kind), label=kind) for kind in REGIMES}


@pytest.fixture(scope="module")
def r3_runs(reaction3):
    return {
        kind: run_scenario(with_regime(reaction3, kind), label=kind)
        for kind in ("bare", "vsc")
    }


def frac(runs, kind: str, label: str) -> np.ndarray:
    return runs[kind].trajectory.normalized_series(label)


def grid_times(runs) -> np.ndarray:
    return np.asarray(next(iter(runs.values())).trajectory.grid.points)


def test_01_thermal_stationarity(reaction1, reaction2, reaction3, capsys):
    worst = 0.0
    slowest = 0.0
    horizon = TimeGrid(points=(1.0e6,), spacing="linear")
    for config in (reaction1, reaction2, reaction3):
        started = time.perf_counter()
        for kind in ("bare", "vsc"):
            gen = build_generator(with_regime(config, kind))
            p0 = initial_distribution(gen.states, config.reactant, config.bath.temperature)
            p_inf = propagate(gen, p0, horizon).state_populations[0]
            energies = gen.states.energies.ravel()
            kT = thermal_energy(config.bath.temperature)
            w = np.exp(-(energies - energies.min()) / kT)
            w /= w.sum()
            worst = max(worst, float(np.abs(p_inf / w - 1.0).max()))
        slowest = max(slowest, time.perf_counter() - started)
    ok = worst <= 1.0e-6 and slowest < 1.0
    report(
        capsys,
        ok,
        1,
        "long-time state populations are Boltzmann",
        f"max rel dev {worst:.2e}, slowest reaction {slowest:.2f} s",
    )


def test_02_detailed_balance(reaction1, reaction2, reaction3, capsys):
    worst = 0.0
    for config in (reaction1, reaction2, reaction3):
        kT = thermal_energy(config.bath.temperature)
        for kind in ("bare", "vsc"):
            gen = build_generator(with_regime(config, kind))
            energies = gen.states.energies.ravel()
            worst = max(worst, detailed_balance_worst(gen.matrix, energies, kT))
    # the perturbative regime stays balanced when the cavity sits on resonance
    gen = build_generator(with_regime(reaction1, "weak"))
    energies = gen.states.energies.ravel()
    worst = max(
        worst,
        detailed_balance_worst(gen.matrix, energies, thermal_energy(reaction1.bath.temperature)),
    )
    ok = worst <= 1.0e-10
    report(capsys, ok, 2, "every rate pair obeys detailed balance", f"max rel dev {worst:.2e}")


def test_03_overlap_factors_match_operator_exponential(capsys):
    worst = 0.0
    for lam in (0.1, 0.728, 1.06, 1.5, 3.0):
        for m_from in range(3):
            for m_to in range(3):
                closed = displacement_matrix_element(m_to, m_from, lam)
                worst = max(worst, abs(closed - displacement_oracle(m_to, m_from, lam)))
    ok = worst <= 1.0e-8
    report(
        capsys,
        ok,
        3,
        "displacement elements match dense exponentiation",
        f"max abs dev {worst:.2e}",
    )


def test_04_coupling_accelerates_conversion(r1_runs, r2_runs, r3_runs, capsys):
    details = []
    ok = True

    # downhill reaction: product fraction ordering at the uncoupled half-rise
    t1 = grid_times(r1_runs)
    t_half = crossing_time(t1, frac(r1_runs, "bare", "B"), 0.5)
    b_bare = value_at(t1, frac(r1_runs, "bare", "B"), t_half)
    b_weak = value_at(t1, frac(r1_runs, "weak", "B"), t_half)
    b_vsc = value_at(t1, frac(r1_runs, "vsc", "B"), t_half)
    ok &= b_vsc - b_weak > 0.02 and b_weak - b_bare > 0.02
    details.append(f"downhill {b_bare:.3f}<{b_weak:.3f}<{b_vsc:.3f}")

    # uphill reaction: same ordering, gaps measured against the tiny plateau
    t2 = grid_times(r2_runs)
    plateau = frac(r2_runs, "bare", "B")[-1]
    t_half2 = crossing_time(t2, frac(r2_runs, "bare", "B"), 0.5 * plateau)
    u_bare = value_at(t2, frac(r2_runs, "bare", "B"), t_half2)
    u_weak = value_at(t2, frac(r2_runs, "weak", "B"), t_half2)
    u_vsc = value_at(t2, frac(r2_runs, "vsc", "B"), t_half2)
    gap_wb = (u_weak - u_bare) / plateau
    gap_vw = (u_vsc - u_weak) / plateau
    ok &= gap_wb > 0.02 and gap_vw > 0.02
    details.append(f"uphill gaps/plateau {gap_wb:.3f}, {gap_vw:.3f}")

    # two-step reaction: taller intermediate peak, delayed product under coupling
    t3 = grid_times(r3_runs)
    peak_bare = float(frac(r3_runs, "bare", "B").max())
    peak_vsc = float(frac(r3_runs, "vsc", "B").max())
    t_conv = crossing_time(t3, frac(r3_runs, "bare", "C"), 0.5)
    c_bare = value_at(t3, frac(r3_runs, "bare", "C"), t_conv)
    c_vsc = value_at(t3, frac(r3_runs, "vsc", "C"), t_conv)
    ok &= peak_vsc - peak_bare > 0.02 and c_bare - c_vsc > 0.02
    details.append(
        f"two-step peak {peak_bare:.3f}->{peak_vsc:.3f}, product {c_vsc:.3f}<{c_bare:.3f}"
    )

    report(capsys, bool(ok), 4, "coupling reshapes all three reactions", "; ".join(details))


def test_05_cavity_loss_not_bath_drives_the_change(
    reaction1, reaction3, r1_runs, r3_runs, capsys
):
    def removed_fraction(runs, knockout_config, metric) -> float:
        base_gap = metric(runs["vsc"].trajectory, runs["bare"].trajectory)
        ko_gap = metric(run_scenario(knockout_config).trajectory, runs["bare"].trajectory)
        return 1.0 - ko_gap / base_gap

    t1 = grid_times(r1_runs)
    t_half = crossing_time(t1, frac(r1_runs, "bare", "B"), 0.5)

    def gap_r1(traj_vsc, traj_bare):
        return value_at(t1, traj_vsc.normalized_series("B"), t_half) - value_at(
            t1, traj_bare.normalized_series("B"), t_half
        )

    t3 = grid_times(r3_runs)
    t_conv = crossing_time(t3, frac(r3_runs, "bare", "C"), 0.5)

    def gap_r3_peak(traj_vsc, traj_bare):
        return float(traj_vsc.normalized_series("B").max() - traj_bare.normalized_series("B").max())

    def gap_r3_product(traj_vsc, traj_bare):
        return value_at(t3, traj_bare.normalized_series("C"), t_conv) - value_at(
            t3, traj_vsc.normalized_series("C"), t_conv
        )

    checks = []
    for config, runs, metrics in (
        (reaction1, r1_runs, (gap_r1,)),
        (reaction3, r3_runs, (gap_r3_peak, gap_r3_product)),
    ):
        no_cavity_loss = with_regime(config, "vsc", kappa=0.0)
        no_bath = with_regime(config, "vsc", eta=0.0)
        for metric in metrics:
            checks.append(("kappa=0", removed_fraction(runs, no_cavity_loss, metric)))
            checks.append(("eta=0", removed_fraction(runs, no_bath, metric)))
    ok = all(
        (removed > 0.5) if name == "kappa=0" else (removed < 0.5) for name, removed in checks
    )
    detail = ", ".join(f"{name} removes {removed:.0%}" for name, removed in checks)
    report(capsys, ok, 5, "photon loss carries the effect, the anharmonic bath does not", detail)


def test_06_fast_vibrational_decay_collapses_the_gap(
    reaction1, reaction2, reaction3, r1_runs, r2_runs, r3_runs, capsys
):
    def max_gap(run_vsc, run_bare) -> float:
        worst = 0.0
        for label in run_vsc.trajectory.species_labels:
            worst = max(
                worst,
                float(
                    np.abs(
                        run_vsc.trajectory.normalized_series(label)
                        - run_bare.trajectory.normalized_series(label)
                    ).max()
                ),
            )
        return worst

    def gap_at_gamma_one(config) -> float:
        return max_gap(
            run_scenario(with_regime(config, "vsc", gamma=1.0)),
            run_scenario(with_regime(config, "bare", gamma=1.0)),
        )

    slow_gaps = {
        "r1": max_gap(r1_runs["vsc"], r1_runs["bare"]),
        "r2": max_gap(r2_runs["vsc"], r2_runs["bare"]),
        "r3": max_gap(r3_runs["vsc"], r3_runs["bare"]),
    }
    fast_gaps = {
        "r1": gap_at_gamma_one(reaction1),
        "r2": gap_at_gamma_one(reaction2),
        "r3": gap_at_gamma_one(reaction3),
    }
    ratio2 = slow_gaps["r2"] / fast_gaps["r2"]
    ratio3 = slow_gaps["r3"] / fast_gaps["r3"]
    # the first reaction is special: its effect survives fast decay in reduced form
    residual_ok = 1.0e-3 < fast_gaps["r1"] <= slow_gaps["r1"] / 2.0
    ok = ratio2 >= 5.0 and ratio3 >= 5.0 and residual_ok
    report(
        capsys,
        ok,
        6,
        "fast vibrational decay suppresses the coupling effect",
        f"shrink x{ratio2:.1f} and x{ratio3:.1f}; residual {fast_gaps['r1']:.3f}",
    )


def test_07_physical_timescales(reaction1, r1_runs, capsys):
    t1 = grid_times(r1_runs)
    t_half = crossing_time(t1, frac(r1_runs, "bare", "B"), 0.5)
    half_rise_ok = 3.0e3 <= t_half <= 3.0e4  # nanosecond-scale conversion

    gen = build_generator(with_regime(reaction1, "bare"))
    labels = gen.states.labels()
    p0 = np.zeros(len(labels))
    p0[labels.index("A.A|v1")] = 1.0
    grid = TimeGrid.linear(0.0, 400.0, 401)
    traj = propagate(gen, p0, grid)
    excited = traj.state_populations[:, [not x.endswith("|0") for x in labels]].sum(axis=1)
    t_decay = crossing_time(np.asarray(grid.points), excited, 1.0 / math.e, rising=False)
    expected = 1.0 / reaction1.bath.gamma
    decay_ok = abs(t_decay - expected) <= 0.05 * expected
    ok = half_rise_ok and decay_ok
    report(
        capsys,
        ok,
        7,
        "conversion and relaxation land on the right timescales",
        f"half rise {t_half / 1.0e3:.2f} ns, vibrational lifetime {t_decay:.1f} ps",
    )


def test_08_stochastic_sampling_reproduces_the_master_equation(reaction1, capsys):
    n_traj = 100_000
    gen = build_generator(with_regime(reaction1, "vsc"))
    p0 = initial_distribution(gen.states, reaction1.reactant, reaction1.bath.temperature)
    checkpoints = np.geomspace(10.0, 5.0e4, 10)
    started = time.perf_counter()
    counts = kmc_state_counts(gen.matrix, p0, checkpoints, n_traj=n_traj, seed=20260823)
    elapsed = time.perf_counter() - started
    det = propagate(gen, p0, TimeGrid(points=tuple(checkpoints), spacing="log"))
    n_b = gen.states.counts()[:, gen.states.species.index("B")]
    mc_mean = counts @ n_b / n_traj
    mc_var = counts @ n_b**2 / n_traj - mc_mean**2
    se = np.sqrt(np.maximum(mc_var, 0.0) / n_traj)
    dev = np.abs(det.species_series("B") - mc_mean)
    tol = np.maximum(3.0 * se, 1.0e-6)
    ok = bool(np.all(dev <= tol)) and elapsed < 60.0
    report(
        capsys,
        ok,
        8,
        "kinetic Monte Carlo agrees with deterministic propagation",
        f"max dev {dev.max():.2e} vs 3 SE, {n_traj} walkers in {elapsed:.1f} s",
    )


def test_09_collective_scaling_calculator(capsys):
    ensemble = vsc_scaling_criterion(1.0, 1.0e6, 1.0, 1.0)
    pair = vsc_scaling_criterion(1.0, 2.0, 1.0, 1.0)
    fast_reverse = vsc_scaling_criterion(1.0, 1.0e6, 1.0e9, 1.0)
    ok = (
        ensemble.modifiable is False
        and ensemble.lhs == 1.0e-6
        and ensemble.rhs == 0.5
        and pair.modifiable is True
        and pair.lhs == pair.rhs == 0.5
        and fast_reverse.modifiable is True
        and fast_reverse.rhs == 1.0 / (1.0e9 + 1.0)
    )
    report(
        capsys,
        ok,
        9,
        "ensemble dilution decides when kinetics can shift",
        f"rhs values {ensemble.rhs!r}, {pair.rhs!r}, {fast_reverse.rhs!r}",
    )


def test_10_dark_mode_sign_freedom(reaction1, capsys):
    basis = build_mode_basis(reaction1.cavity, reaction1.omega_v)
    flipped_rows = tuple(
        tuple(-c for c in row) if label == "d" else row
        for label, row in zip(basis.labels, basis.coefficients)
    )

    def build(mode_basis):
        return assemble_rate_matrix(
            reaction1.network, mode_basis, reaction1.cavity, reaction1.bath, "vsc"
        )

    dev = float(
        np.abs(build(replace(basis, coefficients=flipped_rows)).matrix - build(basis).matrix).max()
    )
    ok = dev <= 1.0e-12
    report(
        capsys,
        ok,
        10,
        "dark-mode sign convention leaves every rate unchanged",
        f"max entry dev {dev:.2e}",
    )
