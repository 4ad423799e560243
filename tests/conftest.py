"""Shared fixtures and independent oracle implementations for the test suite.

Oracles here deliberately avoid the package's own closed-form code paths:
displacement elements come from exponentiating the truncated displacement
generator, the stochastic route samples jump processes directly from a
rate matrix, the reference assembly fills the generator pair by pair
from the state labels instead of block by block, and the reference energy
sums one configuration's terms in plain Python instead of one array
expression. Tests compare the two routes instead of trusting either alone.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from vsckinetics.config import ScenarioConfig, bundled_config_path, load_config
from vsckinetics.eigenmodes import mode_displacements
from vsckinetics.rates import (
    displacement_matrix_element,
    exchange_rate,
    gain_rate,
    loss_rate,
    purcell_exchange_rate,
)
from vsckinetics.units import HBAR, thermal_energy


@pytest.fixture(scope="session")
def reaction1() -> ScenarioConfig:
    return load_config(bundled_config_path("reaction1"))


@pytest.fixture(scope="session")
def reaction2() -> ScenarioConfig:
    return load_config(bundled_config_path("reaction2"))


@pytest.fixture(scope="session")
def reaction3() -> ScenarioConfig:
    return load_config(bundled_config_path("reaction3"))


def with_regime(config: ScenarioConfig, kind: str, **overrides) -> ScenarioConfig:
    """Copy of a config in another regime, optionally tweaking kappa/eta/gamma."""
    out = replace(config, regime_kind=kind)
    if "kappa" in overrides:
        out = replace(out, cavity=replace(out.cavity, kappa=overrides.pop("kappa")))
    bath_fields = {k: overrides.pop(k) for k in ("gamma", "eta") if k in overrides}
    if bath_fields:
        out = replace(out, bath=replace(out.bath, **bath_fields))
    if overrides:
        raise TypeError(f"unknown overrides {sorted(overrides)}")
    return out


def coupling(network, a: str, b: str):
    """The coupling of the unordered species pair {a, b}, or None."""
    return next((c for c in network.couplings if set(c.pair) == {a, b}), None)


def swapped_label(label: str) -> str:
    """Label of the state with the two molecules swapped.

    The configuration reverses; v1 and v2 trade places, and every other mode
    (the cavity, and the eigenmodes under VSC) stays put.
    """
    config, mode = label.split("|")
    mode = {"v1": "v2", "v2": "v1"}.get(mode, mode)
    return f"{'.'.join(reversed(config.split('.')))}|{mode}"


def reference_energy(config, occupations, basis, network) -> float:
    """Energy (cm^-1) of one state, term by term in declaration order.

    Electronic energies, then mode quanta, then the polaron shift
    omega_v * sum_i lambda_phi_i^2 - sum_q omega_q * lambda_config_q^2 with
    the modes subtracted in basis order.
    """
    displacements = [network.displacement(phi) for phi in config]
    energy = sum([network.energy(phi) for phi in config])
    energy = energy + sum(n * omega for n, omega in zip(occupations, basis.frequencies))
    shift = basis.omega_v * sum([lam**2 for lam in displacements])
    per_molecule = [
        mode_displacements(basis, i, lam) for i, lam in enumerate(displacements, start=1)
    ]
    for omega_q, lams in zip(basis.frequencies, zip(*per_molecule)):
        lam = sum(lams)
        shift -= omega_q * lam * lam
    return energy + shift


def reference_franck_condon(occ_to, occ_from, lam_from, lam_to) -> float:
    """Squared Franck-Condon factor of one pattern pair, one mode at a time.

    Modes the molecule does not displace keep their occupation or give 0;
    the others multiply their displacement elements in basis order.
    """
    amp = 1.0
    for m_to, m_from, a, b in zip(occ_to, occ_from, lam_from, lam_to):
        if b == a:
            if m_to != m_from:
                return 0.0
            continue
        amp *= displacement_matrix_element(m_to, m_from, b - a)
        if amp == 0.0:
            return 0.0
    return amp * amp


def detailed_balance_worst(matrix: np.ndarray, energies: np.ndarray, kT: float) -> float:
    """Worst relative deviation of K[j,i]/K[i,j] from exp(-(E_j-E_i)/kT).

    Pairs with both rates exactly zero carry no constraint and are skipped;
    a pair with exactly one zero would make the ratio meaningless and is
    reported as infinite deviation.
    """
    n = matrix.shape[0]
    worst = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            down, up = matrix[j, i], matrix[i, j]
            if down == 0.0 and up == 0.0:
                continue
            if down == 0.0 or up == 0.0:
                return float("inf")
            expected = np.exp(-(energies[j] - energies[i]) / kT)
            worst = max(worst, abs(down / up / expected - 1.0))
    return worst


def displacement_oracle(m_to: int, m_from: int, lam: float, levels: int = 30) -> float:
    """<m_to|exp(lam*(ad - a))|m_from> by dense exponentiation in a truncated basis."""
    ad = np.diag(np.sqrt(np.arange(1.0, levels)), -1)
    return float(expm(lam * (ad - ad.T))[m_to, m_from])


def kmc_state_counts(
    matrix: np.ndarray,
    p0: np.ndarray,
    checkpoints: np.ndarray,
    n_traj: int,
    seed: int,
) -> np.ndarray:
    """Sample jump trajectories of the generator; occupancy counts per checkpoint.

    Returns an integer array of shape (len(checkpoints), n_states) whose row j
    counts how many of the n_traj walkers sat in each state at checkpoints[j].
    Vectorized Gillespie: exponential holding times from the diagonal,
    destinations from the normalized column rates.
    """
    rng = np.random.default_rng(seed)
    n = matrix.shape[0]
    checkpoints = np.asarray(checkpoints, dtype=float)
    exit_rates = -np.diag(matrix)
    jump = matrix.T.copy()  # jump[i, j]: rate i -> j
    np.fill_diagonal(jump, 0.0)
    with np.errstate(invalid="ignore"):
        cum = np.cumsum(jump / np.where(exit_rates > 0.0, exit_rates, 1.0)[:, None], axis=1)

    state = rng.choice(n, size=n_traj, p=p0)
    t_now = np.zeros(n_traj)
    counts = np.zeros((len(checkpoints), n), dtype=np.int64)
    active = np.arange(n_traj)
    t_last = checkpoints[-1]
    while active.size:
        s = state[active]
        lam = exit_rates[s]
        dt = np.full(active.size, np.inf)
        moving = lam > 0.0
        dt[moving] = rng.exponential(1.0, size=int(moving.sum())) / lam[moving]
        t_next = t_now[active] + dt
        for j, t_cp in enumerate(checkpoints):
            hit = (t_now[active] <= t_cp) & (t_next > t_cp)
            if hit.any():
                np.add.at(counts[j], s[hit], 1)
        t_now[active] = t_next
        keep = t_next <= t_last
        active = active[keep]
        if active.size:
            u = rng.random(active.size)
            rows = cum[state[active]]
            dest = (rows < u[:, None]).sum(axis=1)
            state[active] = np.minimum(dest, n - 1)  # guard the u ~ 1.0 roundoff edge
    return counts


def parse_label(label: str, modes) -> tuple:
    """Configuration and occupation pattern of the state labelled ``a.b|q`` over ``modes``."""
    config, mode = label.split("|")
    return tuple(config.split(".")), tuple(int(q == mode) for q in modes)


def reference_assembly(space, network, basis, cavity, bath, regime) -> np.ndarray:
    """Generator filled one state pair at a time from the state labels.

    Same rate laws as ``assemble_rate_matrix`` but none of its layout: each
    state is parsed from its label, each pair is classified by the molecules
    whose species differ and by its quanta, Franck-Condon factors are taken
    one pattern pair at a time, reactive rates are the Marcus-Levich-Jortner
    formula written out with ``math.exp``, and Purcell partners are found by
    searching the list.
    """
    n_mol = len(basis.coefficients[0]) - 1
    kT = thermal_energy(bath.temperature)
    losses = [loss_rate(q, basis, cavity, bath) for q in basis.labels]
    energies = space.energies.ravel().tolist()
    states = [(i, *parse_label(label, basis.labels)) for i, label in enumerate(space.labels())]
    n = len(states)
    K = np.zeros((n, n))
    for i_from, config_from, occ_from in states:
        for i_to, config_to, occ_to in states:
            if i_to == i_from:
                continue
            diff = [k for k in range(n_mol) if config_from[k] != config_to[k]]
            if len(diff) == 1:
                mol = diff[0] + 1
                phi_from, phi_to = config_from[diff[0]], config_to[diff[0]]
                spec = coupling(network, phi_from, phi_to)
                if spec is None or spec.J == 0.0:
                    continue
                lam_from, lam_to = (
                    mode_displacements(basis, mol, network.displacement(phi))
                    for phi in (phi_from, phi_to)
                )
                fc = reference_franck_condon(occ_to, occ_from, lam_from, lam_to)
                lam_s = spec.lambda_s
                de = energies[i_to] - energies[i_from]
                prefactor = math.sqrt(math.pi / (lam_s * kT)) * spec.J**2 / HBAR
                K[i_to, i_from] = (
                    prefactor * fc * math.exp(-((de + lam_s) ** 2) / (4.0 * lam_s * kT))
                )
            elif not diff:
                t_from, t_to = sum(occ_from), sum(occ_to)
                if t_from == 1 and t_to == 0:
                    K[i_to, i_from] = losses[occ_from.index(1)]
                elif t_from == 0 and t_to == 1:
                    q_to = occ_to.index(1)
                    K[i_to, i_from] = gain_rate(
                        losses[q_to], basis.frequencies[q_to], bath.temperature
                    )
                elif t_from == 1 and t_to == 1 and regime.kind == "vsc":
                    q_from = basis.labels[occ_from.index(1)]
                    q_to = basis.labels[occ_to.index(1)]
                    K[i_to, i_from] = exchange_rate(q_from, q_to, basis, bath)
    if regime.kind == "weak":
        out = K.sum(axis=0)
        delta = cavity.omega_c - basis.omega_v
        for i_c, config_c, occ_c in states:
            if sum(occ_c) != 1 or occ_c[0] != 1:
                continue
            for i_v, config_v, occ_v in states:
                if config_v == config_c and sum(occ_v) == 1 and occ_v[0] == 0:
                    rate = purcell_exchange_rate(out[i_c], out[i_v], regime.g_effective, delta)
                    K[i_v, i_c] = K[i_c, i_v] = rate
    np.fill_diagonal(K, -K.sum(axis=0))
    return K
