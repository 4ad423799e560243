"""Master-equation propagation and species observables.

The generator is tiny (<= 36 states) but stiff: rates span ~1e-4 to 1 ps^-1
while horizons reach 1e4-1e6 ps. From a start that is symmetric in the two
identical molecules, the chain lumps exactly onto the orbits of their
exchange (10-24 instead of 16-36 states, ``StateSpace.orbits``). ``propagate``
lumps K on each call and keeps nothing between calls; runs from one start
share its checked and lumped p0 and Boltzmann weights. The exact p(t) =
exp(K t) p0 on a whole grid comes from one eigendecomposition of the lumped
generator: a symmetric one where K is in detailed balance with the Boltzmann
weights of the states, else a general one anchored on the
Grassmann-Taksar-Heyman stationary vector (Oper. Res. 33, 1985). Where
eigenvector methods fail (Moler and Van Loan, SIAM Rev. 45, 2003), a Taylor
series that never subtracts (Xue and Ye, Math. Comp. 82, 2013) runs instead.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from .closed_forms import NumericalError
from .rates import RateMatrix
from .states import MOLECULES, StateSpace
from .units import thermal_energy

__all__ = [
    "TimeGrid",
    "Trajectory",
    "propagate",
    "clamp_for_output",
]

CONSERVATION_TOL = 1e-9
NEGATIVITY_TOL = -1e-10
OUTPUT_CLAMP = 1e-12
EIGENBASIS_COND_LIMIT = 1e8  # cond(V) or sqrt(max pi / min pi); bundled cases reach 1.4e5 and 1.02e8
BALANCE_RTOL = 1e-12  # flux pairs of config-built generators agree to ~5e-14
# t_end * eigensolver error beyond roundoff: |null eigenvalue| or a positive one - 2 eps ||K||_1
EIGENVALUE_DRIFT_LIMIT = 1e-10
_TAYLOR_BLOCK_POINTS = 512  # grid points per Taylor pass; bounds its (T, n, n) stacks on long grids
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing output times in ps."""

    points: Tuple[float, ...]
    spacing: str  # "log" or "linear"

    def __post_init__(self) -> None:
        if self.spacing not in ("log", "linear"):
            raise ValueError(f"spacing must be 'log' or 'linear', got {self.spacing!r}")
        if not self.points:
            raise ValueError("time grid needs at least one point")
        bad = [t for t in self.points if not math.isfinite(t)]
        if bad:
            raise ValueError(f"time grid points must be finite, got {bad[0]!r}")
        if not self.points[0] >= 0.0:
            raise ValueError("time grid must start at t >= 0")
        if any(not b > a for a, b in zip(self.points, self.points[1:])):
            raise ValueError("time grid must be strictly increasing")

    @classmethod
    def logarithmic(cls, start: float, end: float, n: int) -> "TimeGrid":
        if not start > 0.0:
            raise ValueError("log grid needs start > 0")
        if n < 2 or not start < end < math.inf:
            raise ValueError("log grid needs n >= 2 and a finite end > start")
        return cls(points=tuple(float(t) for t in np.geomspace(start, end, n)), spacing="log")

    @classmethod
    def linear(cls, start: float, end: float, n: int) -> "TimeGrid":
        if n < 2 or not -math.inf < start < end < math.inf:
            raise ValueError("linear grid needs n >= 2 and a finite end > finite start")
        if not math.isfinite(end - start):
            raise ValueError(f"linear grid span from {start!r} to {end!r} overflows a double")
        return cls(points=tuple(float(t) for t in np.linspace(start, end, n)), spacing="linear")

    @cached_property
    def times(self) -> np.ndarray:
        """The points as a read-only float64 array, converted on first read."""
        times = np.array(self.points, dtype=float)
        times.flags.writeable = False
        return times


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Populations over a time grid, per state and aggregated per species.

    ``state_populations[k]`` is the state distribution at ``grid.points[k]``;
    ``species_populations[k]`` holds the raw molecule counts N_phi(t) in
    [0, 2], columns aligned with ``species_labels``, the species of the space.
    """

    grid: TimeGrid
    states: StateSpace
    state_populations: np.ndarray

    @property
    def species_labels(self) -> Tuple[str, ...]:
        return self.states.species

    @property
    def species_populations(self) -> np.ndarray:
        # derived on each read, not cached, so that exporting many runs keeps no per-run copy alive;
        # one memory layout, so that the BLAS product sums in one order whatever the array's own
        return np.asfortranarray(self.state_populations) @ self.states.counts()

    def species_series(self, label: str) -> np.ndarray:
        """Raw molecule count N_phi(t)."""
        if label not in self.species_labels:
            raise KeyError(f"unknown species {label!r}")
        return self.species_populations[:, self.species_labels.index(label)]

    def normalized_series(self, label: str) -> np.ndarray:
        """N_phi(t) divided by the molecule count, in [0, 1]."""
        return self.species_series(label) / MOLECULES


def _stationary_vector(K: np.ndarray) -> Optional[np.ndarray]:
    """Stationary vector of K by GTH elimination, or None if K is reducible.

    Censoring states from the last down adds and multiplies non-negative
    rates only, so every component keeps full relative precision.
    """
    A = K.T.copy()  # A[i, j] = rate i -> j
    A.ravel()[:: len(A) + 1] = 0.0
    for k in range(len(A) - 1, 0, -1):
        exit_down = A[k, :k].sum()
        if exit_down <= 0.0:
            return None  # state k cannot reach the states below it
        A[:k, k] /= exit_down
        A[:k, :k] += A[:k, k, None] * A[k, :k]
    pi = np.ones(len(A))
    for j in range(1, len(A)):
        pi[j] = pi[:j] @ A[:j, j]
    return pi / pi.sum() if pi.min() > 0.0 else None  # weight 0: a transient state


def _eigen_populations(
    lam: np.ndarray, V: np.ndarray, c: np.ndarray, p0: np.ndarray, times: np.ndarray
) -> Optional[np.ndarray]:
    """sum_k exp(lam_k t) c_k V[:, k] for every t, t = 0 returning p0; None if it turns negative."""
    terms = np.multiply.outer(times, lam)  # one (T, n) buffer for exp(lam t) c
    np.exp(terms, out=terms)
    terms *= c
    result = (terms @ V.T).real
    if times[0] == 0.0:  # only the first point of a strictly increasing grid can be 0
        result[0] = p0
    return result if result.min() >= NEGATIVITY_TOL else None  # a drift the guards missed


def _balanced(K: np.ndarray, pi: np.ndarray) -> bool:
    """Whether every flux pair pi_i K[j, i], pi_j K[i, j] agrees to BALANCE_RTOL of the larger."""
    flux = K * pi
    return bool((np.abs(flux - flux.T) <= BALANCE_RTOL * np.abs(np.maximum(flux, flux.T))).all())


def _reversible_populations(
    K: np.ndarray, pi: np.ndarray, p0: np.ndarray, times: np.ndarray
) -> Optional[np.ndarray]:
    """exp(K t) p0 for every t from the symmetric form of a K in detailed balance with pi, or None."""
    if -K.diagonal().min() > 1e154:
        return None  # no rate exceeds its column's out-rate, so below this K_ij K_ji and K pi stay finite
    if pi.max() > EIGENBASIS_COND_LIMIT**2 * pi.min() or not _balanced(K, pi):
        return None  # cond(D^1/2 U) = sqrt(max pi / min pi) for orthogonal U
    S = np.sqrt(K * K.T)  # D^-1/2 K D^1/2 off the diagonal, with no ratio of rates
    S.ravel()[:: len(S) + 1] = K.diagonal()
    lam, U = np.linalg.eigh(S)
    if len(lam) < 2 or lam[-2] >= -64.0 * _EPS * np.abs(S).sum(axis=0).max():
        return None  # one state, or reducible, zero or nearly decomposable: no resolved second mode
    root = np.sqrt(pi)
    anchor = root / math.sqrt(root @ root)
    U -= anchor[:, None] * (anchor @ U)  # the other eigenvectors are orthogonal to the anchor
    U[:, -1], lam[-1] = anchor, 0.0
    return _eigen_populations(lam, root[:, None] * U, U.T @ (p0 / root), p0, times)


@np.errstate(over="ignore", invalid="ignore")  # huge rates overflow: NaN declines, inf fails propagate's checks
def _spectral_populations(K: np.ndarray, p0: np.ndarray, times: np.ndarray) -> Optional[np.ndarray]:
    """exp(K t) p0 for every t from one eigendecomposition, or None where it is not trusted."""
    pi = _stationary_vector(K)
    if pi is None:
        return None
    lam, V = np.linalg.eig(K)
    null = int(np.argmin(np.abs(lam)))
    drift = max(abs(lam[null]), lam.real.max()) - 2.0 * _EPS * np.abs(K).sum(0).max()
    if drift * times[-1] > EIGENVALUE_DRIFT_LIMIT:
        return None
    lam[null] = 0.0
    # eigenvectors of nonzero eigenvalues sum to 0: strip what roundoff mixes in
    V -= pi[:, None] * V.sum(axis=0)
    V[:, null] = pi
    if np.linalg.cond(V) > EIGENBASIS_COND_LIMIT:
        return None
    return _eigen_populations(lam, V, np.linalg.solve(V, p0), p0, times)


def _taylor_populations(K: np.ndarray, p0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """exp(K t) p0 for every t by scaling and squaring the Taylor series of K + alpha I >= 0.

    Terms are added until the last one is below roundoff in every entry, which an entry
    first reached in that term is not. Normalising the columns, after the sum and after
    every squaring, removes e^(alpha h) and keeps the squarings from leaking probability.
    """
    n = len(K)
    alpha, horizon = float(-K.diagonal().min()), float(times[-1])
    if not math.isfinite(2.0 * alpha * horizon):  # the scaling 2^s >= 2 alpha t would not fit a double
        raise NumericalError(f"the fastest rate, {alpha:.3e} ps^-1, over {horizon!r} ps overflows a double")
    populations = np.empty((len(times), n))
    for first in range(0, len(times), _TAYLOR_BLOCK_POINTS):
        block = times[first : first + _TAYLOR_BLOCK_POINTS]
        squarings = np.ceil(np.log2(np.maximum(2.0 * alpha * block, 1.0))).astype(int)
        Bh = (K + alpha * np.eye(n)) * (block / 2.0**squarings)[:, None, None]  # alpha h <= 1/2
        term = exp_h = np.tile(np.eye(n), (len(block), 1, 1))
        k = 0
        while np.any(term > _EPS * exp_h):
            k += 1
            term = term @ Bh / k
            exp_h = exp_h + term
        exp_h /= exp_h.sum(axis=1, keepdims=True)
        for s in range(squarings.max()):
            pending = squarings > s
            squared = exp_h[pending] @ exp_h[pending]
            exp_h[pending] = squared / squared.sum(axis=1, keepdims=True)
        populations[first : first + len(block)] = exp_h @ p0
    return populations


# all that ``propagate`` reads of the states, p0 and temperature, for runs from one start to share: the
# orbits as in StateSpace.orbits but one size per orbit, the lumped p0 and Boltzmann weights (or None)
_Start = namedtuple("_Start", "states orbit members lump p0 pi sizes")


def _lumped_start(states: StateSpace, p0: np.ndarray, temperature: Optional[float]) -> _Start:
    """p0 checked and lumped on the orbits it allows, with the Boltzmann weights at ``temperature``."""
    n = len(states)
    p0 = np.asarray(p0, dtype=float)
    if p0.shape != (n,):
        raise ValueError(f"p0 has shape {p0.shape}, expected ({n},)")
    total = float(p0.sum())
    if not abs(total - 1.0) <= 1e-10:
        raise ValueError(f"p0 must sum to 1 within 1e-10, got {total!r}")
    if not p0.min() >= 0.0:
        raise ValueError("p0 must be nonnegative")
    if (p0[states.exchange] == p0).all():
        orbit, members, lump, sizes = states.orbits
    else:
        orbit = members = np.arange(n)
        lump, sizes = np.eye(n), np.ones(n)
    pi = None if temperature is None else lump @ np.exp(-states.excitations / thermal_energy(temperature))
    return _Start(states, orbit, members, lump, lump @ p0, pi, sizes[members])


def propagate(rate_matrix: RateMatrix, p0: np.ndarray, grid: TimeGrid) -> Trajectory:
    """Evaluate p(t) = exp(K t) p0 on every point of ``grid``, p0 a distribution over K's states.

    K commutes with the exchange of the two molecules (``StateSpace.exchange``),
    so from a start that the exchange leaves unchanged, such as every thermal
    start, p(t) is exchange-symmetric and the chain lumps exactly onto the
    orbits {i, exchange[i]} (``StateSpace.orbits``; Kemeny and Snell, Finite
    Markov Chains, 1960; Buchholz, J. Appl. Probab. 31, 1994): K~[O', O] =
    sum_{j in O'} K[j, i0] for any i0 in O, and p_i = p_O / |O|. Other starts
    keep one orbit per state.

    Three paths evaluate the lumped chain on the whole grid, each handing over
    to the next where it declines; t = 0 returns p0 exactly, and an eigen path
    declines where a population falls below NEGATIVITY_TOL.

    1. An assembled K~ (``temperature`` set) whose flux pairs pi_i K~[j, i] and
       pi_j K~[i, j] agree to BALANCE_RTOL, pi the lumped Boltzmann weights
       exp(-(E - E_min)/kT), as in every config-built K but a detuned weak one:
       ``eigh`` of S = D^-1/2 K~ D^1/2, D = diag(pi), built as sqrt(K~_ij K~_ji),
       its top eigenpair pinned to (0, sqrt(pi)). It declines when
       sqrt(max pi / min pi) = cond(D^1/2 U) exceeds EIGENBASIS_COND_LIMIT, the
       second eigenvalue is within 64 eps ||S||_1 of 0 (kappa = 0, K = 0), or a
       rate exceeds 1e154 ps^-1, past which K~_ij K~_ji overflows.
    2. ``eig`` of K~ anchored on the GTH stationary vector. It declines for a
       reducible K~, cond(V) above EIGENBASIS_COND_LIMIT, eigenvalue drift
       above EIGENVALUE_DRIFT_LIMIT or a NaN result; about 1 in 6,000 random
       nearly decomposable generators passes these guards and errs by up to 1.3e-9.
    3. The Taylor series of the non-negative K~ + alpha I (Xue and Ye, 2013),
       which raises NumericalError where 2 alpha t overflows a double.

    p0 may also be ``_lumped_start`` of a p0 over K's states at K's temperature,
    which runs from one start share (``config._run``). Raises ValueError for a
    p0 of the wrong shape, off sum 1 or negative, or a start for other states, and
    NumericalError if the result loses probability beyond 1e-9 or turns
    negative beyond roundoff; populations are kept unclamped here.
    """
    start = p0 if isinstance(p0, _Start) else _lumped_start(rate_matrix.states, p0, rate_matrix.temperature)
    if start.states is not rate_matrix.states:
        raise ValueError("the start was lumped for other states")
    K_lumped = start.lump @ rate_matrix.matrix.take(start.members, axis=1)
    lumped = None if start.pi is None else _reversible_populations(K_lumped, start.pi, start.p0, grid.times)
    if lumped is None:
        lumped = _spectral_populations(K_lumped, start.p0, grid.times)
    if lumped is None:
        lumped = _taylor_populations(K_lumped, start.p0, grid.times)
    lumped /= start.sizes  # each orbit's share: the population of each of its states

    worst_leak = float(np.abs(lumped @ start.sizes - 1.0).max())
    if not worst_leak <= CONSERVATION_TOL:  # a NaN or inf share makes its row's sum NaN or inf
        if not np.isfinite(lumped).all():
            raise NumericalError("propagation produced non-finite populations")
        raise NumericalError(f"probability leaked by {worst_leak:.3e} (tolerance {CONSERVATION_TOL})")
    worst_neg = float(lumped.min())
    if worst_neg < NEGATIVITY_TOL:
        raise NumericalError(f"population went negative: {worst_neg:.3e}")

    # one gather along the states' axis unlumps into an F-contiguous copy (take would give C order)
    return Trajectory(grid=grid, states=rate_matrix.states, state_populations=lumped[:, start.orbit])


def clamp_for_output(populations: np.ndarray) -> np.ndarray:
    """Zero out tiny negative roundoff for reporting; internal arrays stay raw."""
    out = np.array(populations, dtype=float, copy=True)
    out[(out < 0.0) & (out > -OUTPUT_CLAMP)] = 0.0
    return out
