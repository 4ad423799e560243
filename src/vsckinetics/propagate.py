"""Master-equation propagation and species observables.

The generator is tiny (<= 36 states) but stiff: rates span ~1e-4 to 1 ps^-1
while horizons reach 1e4-1e6 ps. From a start that is symmetric in the two
identical molecules, the chain lumps exactly onto the orbits of their
exchange (10-24 instead of 16-36 states). The exact p(t) = exp(K t) p0 on a
whole grid comes from one eigendecomposition of the lumped generator anchored
on its Grassmann-Taksar-Heyman stationary vector (Oper. Res. 33, 1985); where
eigenvector methods fail (Moler and Van Loan, SIAM Rev. 45, 2003), a Taylor
series that never subtracts (Xue and Ye, Math. Comp. 82, 2013) runs instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from .rates import RateMatrix
from .states import MOLECULES, StateSpace

__all__ = [
    "NumericalError",
    "TimeGrid",
    "Trajectory",
    "DEFAULT_GRID_START",
    "DEFAULT_GRID_END",
    "DEFAULT_GRID_POINTS",
    "propagate",
    "clamp_for_output",
    "ScalingCriterion",
    "vsc_scaling_criterion",
]

DEFAULT_GRID_START = 0.1  # ps
DEFAULT_GRID_END = 5.0e4  # ps
DEFAULT_GRID_POINTS = 400

CONSERVATION_TOL = 1e-9
NEGATIVITY_TOL = -1e-10
OUTPUT_CLAMP = 1e-12
EIGENBASIS_COND_LIMIT = 1e8  # cond(V); bundled cases reach ~1.4e5
# t_end * eigensolver error beyond roundoff: |null eigenvalue| or a positive one - 2 eps ||K||_1
EIGENVALUE_DRIFT_LIMIT = 1e-10


class NumericalError(RuntimeError):
    """Propagation produced unphysical populations (non-finite, negative, or leaking)."""


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
        if self.points[0] < 0.0:
            raise ValueError("time grid must start at t >= 0")
        if any(b <= a for a, b in zip(self.points, self.points[1:])):
            raise ValueError("time grid must be strictly increasing")

    @classmethod
    def logarithmic(cls, start: float, end: float, n: int) -> "TimeGrid":
        if start <= 0.0:
            raise ValueError("log grid needs start > 0")
        if n < 2 or end <= start:
            raise ValueError("log grid needs n >= 2 and end > start")
        return cls(points=tuple(float(t) for t in np.geomspace(start, end, n)), spacing="log")

    @classmethod
    def linear(cls, start: float, end: float, n: int) -> "TimeGrid":
        if n < 2 or end <= start:
            raise ValueError("linear grid needs n >= 2 and end > start")
        return cls(points=tuple(float(t) for t in np.linspace(start, end, n)), spacing="linear")


@dataclass(frozen=True)
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

    @cached_property
    def species_populations(self) -> np.ndarray:
        return self.state_populations @ self.states.counts()

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
    np.fill_diagonal(A, 0.0)
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


def _spectral_populations(K: np.ndarray, p0: np.ndarray, times: np.ndarray) -> Optional[np.ndarray]:
    """exp(K t) p0 for every t from one eigendecomposition, or None where it is not trusted."""
    pi = _stationary_vector(K)
    lam, V = np.linalg.eig(K)
    null = int(np.argmin(np.abs(lam)))
    drift = max(abs(lam[null]), lam.real.max()) - 2.0 * np.finfo(float).eps * np.abs(K).sum(0).max()
    if pi is None or drift * times[-1] > EIGENVALUE_DRIFT_LIMIT:
        return None
    lam[null] = 0.0
    # eigenvectors of nonzero eigenvalues sum to 0: strip what roundoff mixes in
    V -= np.outer(pi, V.sum(axis=0))
    V[:, null] = pi
    if np.linalg.cond(V) > EIGENBASIS_COND_LIMIT:
        return None
    result = ((np.exp(np.outer(times, lam)) * np.linalg.solve(V, p0)) @ V.T).real
    result[times == 0.0] = p0
    return result if result.min() >= NEGATIVITY_TOL else None  # a drift the estimate missed


def _taylor_populations(K: np.ndarray, p0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """exp(K t) p0 for every t by scaling and squaring the Taylor series of K + alpha I >= 0.

    Terms are added until the last one is below roundoff in every entry, which an entry
    first reached in that term is not. Normalising the columns, after the sum and after
    every squaring, removes e^(alpha h) and keeps the squarings from leaking probability.
    """
    n = len(K)
    alpha = -K.diagonal().min()
    squarings = np.ceil(np.log2(np.maximum(2.0 * alpha * times, 1.0))).astype(int)
    Bh = (K + alpha * np.eye(n)) * (times / 2.0**squarings)[:, None, None]  # alpha h <= 1/2
    term = exp_h = np.tile(np.eye(n), (len(times), 1, 1))
    k = 0
    while np.any(term > np.finfo(float).eps * exp_h):
        k += 1
        term = term @ Bh / k
        exp_h = exp_h + term
    exp_h /= exp_h.sum(axis=1, keepdims=True)
    for s in range(squarings.max()):
        pending = squarings > s
        squared = exp_h[pending] @ exp_h[pending]
        exp_h[pending] = squared / squared.sum(axis=1, keepdims=True)
    return exp_h @ p0


def _orbits(exchange: np.ndarray, p0: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Orbit of every state under the molecule exchange, and one member of each orbit.

    A start the exchange leaves unchanged gets the orbits {i, exchange[i]};
    any other start gets one orbit per state.
    """
    states = np.arange(len(p0))
    if not np.array_equal(p0[exchange], p0):
        return states, states
    lowest = np.minimum(states, exchange)
    members = np.flatnonzero(lowest == states)
    return np.searchsorted(members, lowest), members


def propagate(rate_matrix: RateMatrix, p0: np.ndarray, grid: TimeGrid) -> Trajectory:
    """Evaluate p(t) = exp(K t) p0 on every grid point.

    K commutes with the exchange of the two molecules (``StateSpace.exchange``),
    so from a start that the exchange leaves unchanged, such as every thermal
    start, p(t) is exchange-symmetric and the chain lumps exactly onto the
    orbits {i, exchange[i]} (Kemeny and Snell, Finite Markov Chains, 1960;
    Buchholz, J. Appl. Probab. 31, 1994): K~[O', O] = sum_{j in O'} K[j, i0]
    for any i0 in O, and p_i = p_O / |O|. Other starts keep one orbit per
    state.

    K~ is diagonalised once, its eigenvalue nearest 0 set to 0 with the GTH
    stationary vector (Grassmann, Taksar and Heyman, Oper. Res. 33, 1985) as
    eigenvector; t = 0 returns p0 exactly. Reducible K~, cond(V) above
    EIGENBASIS_COND_LIMIT (Moler and Van Loan, SIAM Rev. 45, 2003), eigenvalue
    drift above EIGENVALUE_DRIFT_LIMIT and negative results take the Taylor
    series of the non-negative K~ + alpha I instead (Xue and Ye, 2013).

    p0 must be a normalized distribution over the generator's states.
    Raises NumericalError if the result loses probability beyond 1e-9 or
    turns negative beyond roundoff; populations are kept unclamped here.
    """
    K = rate_matrix.matrix
    states = rate_matrix.states
    p0 = np.asarray(p0, dtype=float)
    if p0.shape != (len(states),):
        raise ValueError(f"p0 has shape {p0.shape}, expected ({len(states)},)")
    if abs(p0.sum() - 1.0) > 1e-10:
        raise ValueError(f"p0 must sum to 1 within 1e-10, got {p0.sum()!r}")
    if p0.min() < 0.0:
        raise ValueError("p0 must be nonnegative")

    orbit, members = _orbits(states.exchange, p0)
    lump = np.zeros((len(members), len(states)))
    lump[orbit, np.arange(len(states))] = 1.0
    K_lumped, p0_lumped = lump @ K[:, members], lump @ p0
    times = np.asarray(grid.points)
    lumped = _spectral_populations(K_lumped, p0_lumped, times)
    if lumped is None:
        lumped = _taylor_populations(K_lumped, p0_lumped, times)
    result = lumped[:, orbit] / lump.sum(axis=1)[orbit]

    if not np.all(np.isfinite(result)):
        raise NumericalError("propagation produced non-finite populations")
    worst_leak = float(np.abs(result.sum(axis=1) - 1.0).max())
    if worst_leak > CONSERVATION_TOL:
        raise NumericalError(f"probability leaked by {worst_leak:.3e} (tolerance {CONSERVATION_TOL})")
    worst_neg = float(result.min())
    if worst_neg < NEGATIVITY_TOL:
        raise NumericalError(f"population went negative: {worst_neg:.3e}")

    return Trajectory(grid=grid, states=states, state_populations=result)


def clamp_for_output(populations: np.ndarray) -> np.ndarray:
    """Zero out tiny negative roundoff for reporting; internal arrays stay raw."""
    out = np.array(populations, dtype=float, copy=True)
    out[(out < 0.0) & (out > -OUTPUT_CLAMP)] = 0.0
    return out


@dataclass(frozen=True)
class ScalingCriterion:
    """Both sides of the collective-scaling condition epsilon/N >= k_d/(k_r + k_d)."""

    modifiable: bool
    lhs: float
    rhs: float
    k_ssa: Optional[float] = None  # steady-state bare rate k_f * k_d / (k_r + k_d)


def vsc_scaling_criterion(
    epsilon: float,
    n_molecules: float,
    k_r: float,
    k_d: float,
    k_f: Optional[float] = None,
) -> ScalingCriterion:
    """Decide whether a per-molecule rate change epsilon can alter ensemble kinetics.

    A vibrationally hot product branches between the reverse reaction (k_r)
    and decay (k_d); the net conversion is modified only if the relative
    single-molecule rate change epsilon, diluted by the N molecules sharing
    the cavity, is at least the branching fraction k_d/(k_r + k_d). Passing
    the forward rate k_f additionally reports the steady-state net rate.
    """
    if n_molecules < 1:
        raise ValueError(f"N must be >= 1, got {n_molecules}")
    if epsilon < 0.0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    if k_r < 0.0 or k_d < 0.0:
        raise ValueError("rates must be >= 0")
    if k_r + k_d == 0.0:
        raise ValueError("k_r + k_d must be > 0")
    lhs = epsilon / n_molecules
    rhs = k_d / (k_r + k_d)
    k_ssa = None if k_f is None else k_f * rhs
    return ScalingCriterion(modifiable=lhs >= rhs, lhs=lhs, rhs=rhs, k_ssa=k_ssa)
