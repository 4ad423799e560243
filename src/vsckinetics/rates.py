"""Transition rates and generator assembly for the kinetic model.

Three process families populate the generator:

* reactive transitions (nonadiabatic electron transfer of one molecule,
  Marcus-Levich-Jortner form with a multimode Franck-Condon factor),
* loss and gain of single cavity-vibrational quanta (detailed balance),
* one-quantum exchange between modes (Ohmic bath between the eigenmodes
  under VSC; Purcell-type cavity-vibration exchange in the weak regime).

Every regime shares one mode basis: the polariton/dark eigenmodes under VSC,
the identity rotation over cavity and bare vibrations otherwise. Franck-Condon
factors, losses, gains and bath exchange are therefore one formula each, indexed
by mode position (only eigenmodes share vibrations, so only they exchange); the
regime is a plain kind out of ``eigenmodes.REGIME_KINDS`` that decides only whether the
weak Purcell term joins them and, through ``effective_coupling``, its coupling.

Assembly follows the same split. Two molecules over S species give S^2
configurations of P = 4 occupation patterns each, so K is an S^2 x S^2 grid
of P x P blocks. A reactive jump changes one molecule's species: per coupled
pair and direction, one P x P Franck-Condon matrix fills molecule 1's cells
for every spectator species at once, and molecule 2's cells are their exact
image under the exchange of the two molecules. That reactive part
(``reactive_rates``) reads only the network, the mode basis and the
temperature, so it is memoized per process: ``assemble_rate_matrix(network,
basis, cavity, bath, kind)`` takes it at the bath temperature, and generators
over equal inputs share it, its states included. Loss, gain and bath exchange
stay inside a configuration: assembly adds one block from ``mode_block`` to
every diagonal cell of a copy. K commutes with the exchange, the state
permutation ``StateSpace.exchange`` that the propagator lumps on.

Rates are in ps^-1, energies in cm^-1. The generator K is column-conservative:
K[j][i] is the rate i -> j and each diagonal entry carries minus its column's
off-diagonal sum, so d/dt p = K p preserves total probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Optional, Sequence, Tuple

import numpy as np

from .closed_forms import MAX_OCCUPATION, displacement_matrix_element
from .eigenmodes import VSC_MODE_LABELS, CavitySpec, ModeBasis, check_regime_kind, mode_displacements
from .states import (
    CouplingSpec,
    ReactionNetwork,
    StateSpace,
    enumerate_states,
    occupation_patterns,
)
from .units import HBAR, thermal_energy, wavenumber_to_angular

__all__ = [
    "BathSpec",
    "RateMatrix",
    "WEAK_COUPLING_DIVISOR",
    "franck_condon",
    "reactive_rate",
    "effective_coupling",
    "mode_block",
    "purcell_exchange_rate",
    "reactive_rates",
    "assemble_rate_matrix",
]

WEAK_COUPLING_DIVISOR = 100.0
REACTIVE_CACHE_SIZE = 32  # reactive parts kept per process; ~10 kB each at 36 states
# column sums of the same rates in another order: a few ulps of each entry
EXCHANGE_RTOL = 64 * np.finfo(float).eps


@dataclass(frozen=True)
class BathSpec:
    """Dissipation parameters: vibrational decay, anharmonic bath, temperature."""

    gamma: float  # ps^-1, bare vibrational decay
    eta: float  # dimensionless anharmonic coupling strength
    omega_cut: float  # cm^-1, cutoff of the low-frequency bath
    temperature: float  # K

    def __post_init__(self) -> None:
        if not self.gamma >= 0.0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if not self.eta >= 0.0:
            raise ValueError(f"eta must be >= 0, got {self.eta}")
        if not self.omega_cut > 0.0:
            raise ValueError(f"omega_cut must be > 0, got {self.omega_cut}")
        if not self.temperature > 0.0:
            raise ValueError(f"temperature must be > 0, got {self.temperature}")


def effective_coupling(kind: str, g: float) -> float:
    """Single-molecule coupling (cm^-1) a regime uses: g under "vsc", g/100 under "weak", 0 bare."""
    check_regime_kind(kind)
    return {"vsc": g, "weak": g / WEAK_COUPLING_DIVISOR}.get(kind, 0.0)


@dataclass(frozen=True, eq=False)
class RateMatrix:
    """Master-equation generator over a state space.

    K commutes with the exchange of the two molecules (``states.exchange``)
    up to roundoff, so a start distribution the exchange leaves unchanged
    stays so for all times. An assembled K records its bath ``temperature``,
    at which its rates may balance against the Boltzmann weights of the states.
    """

    states: StateSpace
    matrix: np.ndarray  # K[j, i] = rate of state i -> state j
    temperature: Optional[float] = None  # K

    def __post_init__(self) -> None:
        n = len(self.states)
        if self.matrix.shape != (n, n):
            raise ValueError(f"matrix shape {self.matrix.shape} does not match {n} states")
        K = self.matrix
        if not np.isfinite(K).all():
            raise ValueError("rate matrix contains non-finite entries")
        negative = K < 0.0
        negative.flat[:: n + 1] = False  # the diagonal carries minus the out-rates
        if negative.any():
            raise ValueError("negative off-diagonal rate")
        perm = self.states.exchange
        drift = K.take(perm, axis=0).take(perm, axis=1)
        drift -= K
        if (np.abs(drift, out=drift) > EXCHANGE_RTOL * np.abs(K)).any():
            raise ValueError("rate matrix does not commute with the molecule exchange")
        if self.temperature is not None and not self.temperature > 0.0:
            raise ValueError(f"temperature must be > 0, got {self.temperature}")


def franck_condon(
    occ_to: Sequence[Sequence[int]],
    occ_from: Sequence[Sequence[int]],
    lam_from: Sequence[float],
    lam_to: Sequence[float],
) -> np.ndarray:
    """Squared Franck-Condon factors of one molecule's reaction, indexed [to, from].

    ``occ_to`` and ``occ_from`` are stacks of occupation patterns, one per
    row. ``lam_from``/``lam_to`` are the reacting molecule's per-mode
    displacements (``mode_displacements``) before and after the reaction.
    Each factor is the product over modes of displacement elements for the
    change, read from one table of elements per mode; a mode the molecule
    does not displace keeps its occupation or the factor is 0.
    """
    to, frm = np.array(occ_to), np.array(occ_from)
    if min(to.min(), frm.min()) < 0 or max(to.max(), frm.max()) > MAX_OCCUPATION:
        raise ValueError(f"occupation numbers must be non-negative and at most {MAX_OCCUPATION}")
    levels = int(max(to.max(), frm.max())) + 1
    amp = np.ones((len(to), len(frm)))
    for q, (a, b) in enumerate(zip(lam_from, lam_to)):
        table = np.array(
            [
                [displacement_matrix_element(m, n, b - a) for n in range(levels)]
                for m in range(levels)
            ]
        )
        amp = amp * table[to[:, None, q], frm[None, :, q]]
    return amp * amp


def reactive_rate(
    coupling: CouplingSpec,
    fc: float | np.ndarray,
    de: float | np.ndarray,
    temperature: float,
) -> float | np.ndarray:
    """Electron-transfer rate (ps^-1) over one coupled species pair.

    Marcus-Levich-Jortner form with the high-frequency part carried by the
    squared Franck-Condon factor ``fc`` and the activation penalty by the
    composite energy gap ``de`` = E_to - E_from (cm^-1). ``fc`` and ``de``
    may be arrays of matching shape; the coupling needs lambda_s > 0.
    """
    kT = thermal_energy(temperature)
    lam_s = coupling.lambda_s
    prefactor = math.sqrt(math.pi / (lam_s * kT)) * coupling.J * coupling.J / HBAR
    return prefactor * fc * np.exp(-((de + lam_s) ** 2) / (4.0 * lam_s * kT))


def mode_block(basis: ModeBasis, cavity: CavitySpec, bath: BathSpec) -> np.ndarray:
    """Rates among the P = 1 + M occupation patterns of one configuration, indexed [to, from].

    Pattern 0 is the ground state and pattern q one quantum in mode q - 1 of
    ``basis``. A quantum decays at its cavity weight times kappa plus its
    vibrational weight times gamma, C[:,0]^2 kappa + sum_i C[:,i]^2 gamma, and
    the gain from the ground state pairs with each loss by detailed balance.

    Distinct modes that share vibrational weight also exchange quanta through
    the anharmonic bath: Ohmic spectral density J(w) = eta * w * exp(-(w/w_cut)^2)
    at the angular gap, weighted by the overlap sum_i C[r,i]^2 C[q,i]^2 (never
    nonzero in the identity basis); downhill moves carry (nbar+1) and uphill moves
    nbar, so each pair satisfies detailed balance. Degenerate modes (zero gap,
    e.g. g = 0 on resonance) exchange at the w -> 0 limit 2 pi * overlap * eta * kT
    in angular units, the same both ways.
    """
    # each mode's cavity weight and its vibrational weight per molecule, as Python floats
    weights = [(c * c, v1 * v1, v2 * v2) for c, v1, v2 in basis.coefficients]
    loss = [w0 * cavity.kappa + (w1 + w2) * bath.gamma for w0, w1, w2 in weights]
    kT = thermal_energy(bath.temperature)
    P = 1 + len(basis.frequencies)
    block = np.zeros((P, P))
    block[0, 1:] = loss
    block[1:, 0] = [x * math.exp(-omega / kT) for x, omega in zip(loss, basis.frequencies)]
    overlap = [[a1 * b1 + a2 * b2 for _, b1, b2 in weights] for _, a1, a2 in weights]
    w_cut = wavenumber_to_angular(bath.omega_cut)
    for (q, w_from), (r, w_to) in permutations(enumerate(basis.frequencies), 2):
        if overlap[r][q] == 0.0:  # 0 * inf would be NaN at an overflowing eta
            continue
        d_omega = w_to - w_from  # cm^-1
        gap = abs(d_omega)
        if gap == 0.0:
            rate = 2.0 * math.pi * overlap[r][q] * bath.eta * wavenumber_to_angular(kT)
        else:
            w = wavenumber_to_angular(gap)
            spectral = bath.eta * w * math.exp(-((w / w_cut) ** 2))
            nbar = 1.0 / math.expm1(gap / kT)
            occupancy = nbar + 1.0 if d_omega < 0.0 else nbar
            rate = 2.0 * math.pi * overlap[r][q] * occupancy * spectral
        block[1 + r, 1 + q] = rate
    return block


def purcell_exchange_rate(
    k_out_cavity: float | np.ndarray, k_out_vib: float | np.ndarray, g: float, delta: float
) -> float | np.ndarray:
    """Cavity-vibration exchange rate in the perturbative regime.

    gamma' = 4 g^2 k / (4 Delta^2 + k^2) with k the summed out-rates of the
    two exchanging states; g (cm^-1) and the detuning Delta (cm^-1) are
    converted to angular frequency so the result is ps^-1. The rate is
    symmetric in the two states. Requires a nonzero total linewidth. The
    out-rates may be arrays of matching shape, one rate per pair.
    """
    if not (np.min(k_out_cavity) >= 0.0 and np.min(k_out_vib) >= 0.0):  # min() of the two would drop a second NaN
        raise ValueError("out-rates must be >= 0")
    k_total = k_out_cavity + k_out_vib
    if np.any(k_total == 0.0):
        raise ValueError("Purcell exchange undefined for two non-decaying states")
    g_ang = wavenumber_to_angular(g)
    d_ang = wavenumber_to_angular(delta)
    with np.errstate(over="ignore", invalid="ignore"):  # past ~1e154, k^2 -> inf gives the limit 0
        return 4.0 * g_ang * g_ang * k_total / (4.0 * d_ang * d_ang + k_total * k_total)


@lru_cache(maxsize=REACTIVE_CACHE_SIZE)
def reactive_rates(network: ReactionNetwork, basis: ModeBasis, temperature: float) -> Tuple[StateSpace, np.ndarray]:
    """The states and the reactive part of the generators of ``network`` over the modes of ``basis``.

    The states are ``enumerate_states(network, basis)``; the part is read-only,
    in K's layout with no diagonal, so it reshapes to (S, S, P, S, S, P):
    destination species of molecules 1 and 2 and pattern, then the same for
    the source. Memoized on the three values, the last REACTIVE_CACHE_SIZE
    kept: equal inputs, -0.0 for 0.0 included, share one pair, states and
    all, with the bits each would build.
    """
    space = enumerate_states(network, basis)
    patterns = occupation_patterns(len(basis.labels))
    S, _, P = space.energies.shape
    # molecule 1 reacts in R; molecule 2's reactions are its image under the exchange
    R = np.zeros((S, S, P, S, S, P))
    E = space.energies
    spectator = np.arange(S)
    for c in [c for c in network.couplings if c.J != 0.0]:
        a, b = (space.species.index(phi) for phi in c.pair)
        lam_a, lam_b = (
            mode_displacements(basis, 1, network.species[i].displacement) for i in (a, b)
        )
        # squared factors are symmetric in the two patterns: one matrix serves both ways
        fc = franck_condon(patterns, patterns, lam_a, lam_b)
        de = E[b, :, :, None] - E[a, :, None, :]  # a -> b; b -> a has the negated transpose
        forward = reactive_rate(c, fc, de, temperature)
        backward = reactive_rate(c, fc, -de.transpose(0, 2, 1), temperature)
        # a rate underflowing alone breaks detailed balance: drop both below normal doubles
        dead = np.minimum(forward, backward.transpose(0, 2, 1)) < np.finfo(float).tiny
        forward[dead] = backward[dead.transpose(0, 2, 1)] = 0.0
        R[b, spectator, :, a, spectator, :] = forward
        R[a, spectator, :, b, spectator, :] = backward
    R = R.reshape(S * S * P, S * S * P)
    matrix = R + R[space.exchange][:, space.exchange]
    matrix.flags.writeable = False
    return space, matrix


def assemble_rate_matrix(
    network: ReactionNetwork, basis: ModeBasis, cavity: CavitySpec, bath: BathSpec, kind: str
) -> RateMatrix:
    """The generator of ``network`` over the modes of ``basis`` in a regime ``kind`` (one of ``eigenmodes.REGIME_KINDS``).

    ``basis`` is the kind's ``mode_basis``. The reactive part comes from ``reactive_rates`` at the
    bath temperature, so generators over equal networks, bases and temperatures share it and its
    states; the basis's ``mode_block`` adds loss, gain and bath exchange. The kind decides only
    the Purcell term: "weak" adds the symmetric cavity-vibration exchange at the coupling
    ``effective_coupling(kind, cavity.g)``, whose linewidths are the bare out-rates of the two
    exchanging states. Observable rates must not depend on the dark-row sign of the eigenmodes.
    """
    g_effective = effective_coupling(kind, cavity.g)
    if (kind == "vsc") != (basis.labels == VSC_MODE_LABELS):
        raise ValueError(f"regime {kind!r} does not work in the mode basis {basis.labels}")
    states, reactive = reactive_rates(network, basis, bath.temperature)
    S, _, P = states.energies.shape
    K = reactive.copy()
    configs = np.arange(S * S)
    K.reshape(S * S, P, S * S, P)[configs, :, configs, :] += mode_block(basis, cavity, bath)

    if kind == "weak":
        out = K.sum(axis=0).reshape(S * S, P)  # bare out-rates; the diagonal is still zero here
        delta = cavity.omega_c - basis.omega_v
        gamma_p = purcell_exchange_rate(out[:, 1:2], out[:, 2:], g_effective, delta)
        i_c = np.arange(1, S * S * P, P)[:, None]  # the cavity-excited state of each configuration
        i_v = i_c + np.arange(1, 3)  # and its two vibration-excited states
        K[i_v, i_c] = K[i_c, i_v] = gamma_p

    out_rates = K.sum(axis=0)
    if not np.isfinite(out_rates).all():  # each sums its column, so it carries any inf or nan
        raise OverflowError("a rate of the generator overflows a double")
    K.ravel()[:: len(K) + 1] = -out_rates
    return RateMatrix(states=states, matrix=K, temperature=bath.temperature)
