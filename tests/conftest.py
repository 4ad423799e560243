"""Shared fixtures and independent oracle implementations for the test suite.

Oracles here deliberately avoid the package's own closed-form code paths:
displacement elements come from exponentiating the truncated displacement
generator, the stochastic route samples jump processes directly from a
rate matrix, the reference assembly fills the generator pair by pair
from the state labels with every rate law written out as scalar arithmetic
instead of block by block, the reference energy
sums one configuration's terms in plain Python instead of one array
expression, the high-precision propagator exponentiates the full,
unlumped generator in mpmath, and the reference JSON export dumps the
whole payload, every array a list, in one ``json.dumps`` call. Tests
compare the two routes instead of trusting either alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm

from vsckinetics.closed_forms import displacement_matrix_element
from vsckinetics.config import ScenarioConfig, bundled_config_path, export, load_config
from vsckinetics.eigenmodes import mode_displacements
from vsckinetics.propagate import clamp_for_output
from vsckinetics.rates import purcell_exchange_rate
from vsckinetics.states import MOLECULES
from vsckinetics.units import HBAR, thermal_energy, wavenumber_to_angular


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


def species(network, label: str):
    """The declared species called ``label``."""
    return next(s for s in network.species if s.label == label)


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
    displacements = [species(network, phi).displacement for phi in config]
    energy = sum([species(network, phi).energy for phi in config])
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


# Two uncoupled species under weak coupling with kappa = 0: reducible, and stiff
# (largest out-rate 4.3e3 ps^-1 against gamma = 1e-4); scipy's expm leaked 3.8e-9 on it.
STIFF_REDUCIBLE = {
    "name": "stiff",
    "species": [
        {"label": "S0", "energy": 0.0, "displacement": 1e-160},
        {"label": "S1", "energy": 100.0, "displacement": 0.0},
    ],
    "couplings": [],
    "cavity": {"omega_c": 2000.0, "g": 122.7, "kappa": 0.0},
    "bath": {"gamma": 1e-4, "temperature": 150.0},
    "regime": "weak",
}


def mpmath_doubling_populations(
    matrix: np.ndarray, p0: np.ndarray, t0: float, doublings: int, dps: int = 40
) -> np.ndarray:
    """exp(K t) p0 at t = t0 * 2^j for j = 0..doublings, in dps-digit arithmetic.

    mpmath's Taylor expm gives exp(K t0) and every later time squares the
    previous exponential, so the whole grid costs one dense product per point.
    The inputs are exact binary floats; only the result is rounded back.
    """
    with mpmath.workdps(dps):
        E = mpmath.expm(mpmath.matrix(matrix.tolist()) * t0)
        p = mpmath.matrix(p0.tolist())
        rows = []
        for j in range(doublings + 1):
            rows.append([float(x) for x in E * p])
            if j < doublings:
                E = E * E
    return np.array(rows)


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


def reference_loss(basis, cavity, bath, q: int) -> float:
    """Decay rate of one quantum in mode q: cavity weight * kappa + vibrational weight * gamma."""
    row = basis.coefficients[q]
    return row[0] ** 2 * cavity.kappa + sum(c**2 for c in row[1:]) * bath.gamma


def reference_exchange(basis, bath, q_from: int, q_to: int) -> float:
    """Ohmic bath relaxation of one quantum from mode q_from to mode q_to (ps^-1)."""
    overlap = sum(
        a**2 * b**2 for a, b in zip(basis.coefficients[q_from][1:], basis.coefficients[q_to][1:])
    )
    kT = thermal_energy(bath.temperature)
    d_omega = basis.frequencies[q_to] - basis.frequencies[q_from]
    if d_omega == 0.0:  # the w -> 0 limit of J(w) * nbar(w)
        return 2.0 * math.pi * overlap * bath.eta * wavenumber_to_angular(kT)
    w = wavenumber_to_angular(abs(d_omega))
    spectral = bath.eta * w * math.exp(-((w / wavenumber_to_angular(bath.omega_cut)) ** 2))
    nbar = 1.0 / math.expm1(abs(d_omega) / kT)
    return 2.0 * math.pi * overlap * (nbar + 1.0 if d_omega < 0.0 else nbar) * spectral


def reference_assembly(space, network, basis, cavity, bath, kind) -> np.ndarray:
    """Generator filled one state pair at a time from the state labels.

    Same rate laws as ``assemble_rate_matrix`` but none of its layout: each
    state is parsed from its label, each pair is classified by the molecules
    whose species differ and by its quanta, Franck-Condon factors are taken
    one pattern pair at a time, reactive rates are the Marcus-Levich-Jortner
    formula written out with ``math.exp``, loss, gain and bath exchange are
    scalar formulas per mode, and Purcell partners are found by searching the
    list at g/100.
    """
    n_mol = len(basis.coefficients[0]) - 1
    kT = thermal_energy(bath.temperature)
    losses = [reference_loss(basis, cavity, bath, q) for q in range(len(basis.labels))]
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
                    mode_displacements(basis, mol, species(network, phi).displacement)
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
                    K[i_to, i_from] = losses[q_to] * math.exp(-basis.frequencies[q_to] / kT)
                elif t_from == 1 and t_to == 1 and kind == "vsc":
                    K[i_to, i_from] = reference_exchange(
                        basis, bath, occ_from.index(1), occ_to.index(1)
                    )
    if kind == "weak":
        out = K.sum(axis=0)
        delta = cavity.omega_c - basis.omega_v
        for i_c, config_c, occ_c in states:
            if sum(occ_c) != 1 or occ_c[0] != 1:
                continue
            for i_v, config_v, occ_v in states:
                if config_v == config_c and sum(occ_v) == 1 and occ_v[0] == 0:
                    rate = purcell_exchange_rate(out[i_c], out[i_v], cavity.g / 100.0, delta)
                    K[i_v, i_c] = K[i_c, i_v] = rate
    np.fill_diagonal(K, -K.sum(axis=0))
    return K


def reference_json(results) -> str:
    """The JSON export of ``results`` as one ``json.dumps`` of the whole payload, plus a newline."""
    runs = []
    for result in results:
        traj = result.trajectory
        species_pop = clamp_for_output(traj.species_populations)
        runs.append({
            "label": result.label,
            "fingerprint": result.metadata["fingerprint"],
            "metadata": result.metadata,
            "time_ps": traj.grid.times.tolist(),
            "states": list(traj.states.labels()),
            "state_populations": clamp_for_output(traj.state_populations).tolist(),
            "species": {
                lab: {"raw": raw, "normalized": normalized}
                for lab, raw, normalized in zip(
                    traj.species_labels, species_pop.T.tolist(), (species_pop / MOLECULES).T.tolist()
                )
            },
        })
    return json.dumps({"format_version": 1, "runs": runs}, indent=2) + "\n"


def assert_json_export(results, path) -> None:
    """The streamed export holds the reference bytes, and loading and dumping them again repeats them."""
    (written,) = export(results, "json", path)
    text = written.read_text()
    assert written.read_bytes() == reference_json(results).encode()
    assert json.dumps(json.loads(text), indent=2) + "\n" == text
