"""Closed forms and command-line names that need no model, in the standard library alone.

The paper's collective-scaling criterion and the displacement matrix elements
behind every Franck-Condon factor are closed forms, so the ``criterion`` and
``fcf --lam`` commands evaluate them here and never load numpy. The module
also owns the names every command's parser and error handler read: the
occupation bound, the sweep parameters and ``NumericalError``. This is each
name's one home: ``propagate``, ``rates``, ``config`` and ``cli`` import them
from here and export none of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "MAX_OCCUPATION",
    "SWEEP_PARAMETERS",
    "NumericalError",
    "ScalingCriterion",
    "displacement_matrix_element",
    "vsc_scaling_criterion",
]

MAX_OCCUPATION = 100  # the model holds at most one quantum; element recurrences take O(m) steps
SWEEP_PARAMETERS = ("kappa", "eta", "gamma", "g")


class NumericalError(RuntimeError):
    """Propagation produced unphysical populations (non-finite, negative, or leaking)."""


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
    if not n_molecules >= 1:
        raise ValueError(f"N must be >= 1, got {n_molecules}")
    if not epsilon >= 0.0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    if not (k_r >= 0.0 and k_d >= 0.0):
        raise ValueError("rates must be >= 0")
    if k_r + k_d == 0.0:
        raise ValueError("k_r + k_d must be > 0")
    lhs = epsilon / n_molecules
    half = 0.5 if k_r + k_d == math.inf else 1.0  # a sum past the largest double: halve both, exactly
    rhs = (half * k_d) / (half * k_r + half * k_d)
    k_ssa = None if k_f is None else k_f * rhs
    return ScalingCriterion(modifiable=lhs >= rhs, lhs=lhs, rhs=rhs, k_ssa=k_ssa)


def displacement_matrix_element(m_to: int, m_from: int, lam: float) -> float:
    """<m_to| D(lam) |m_from> for a real displacement lam.

    Closed form: sqrt(m_min!/m_max!) * exp(-lam^2/2) * arg^k * L_{m_min}^{(k)}(lam^2)
    with k = |m_to - m_from| and arg = lam for raising elements, -lam for
    lowering ones. The Laguerre value comes from the three-term upward
    recurrence and the factorial ratio from a running product of 1/sqrt, both
    stable for occupations in 0..MAX_OCCUPATION; others raise ValueError.
    Raises OverflowError where that arithmetic overflows.
    """
    for name, m in (("m_to", m_to), ("m_from", m_from)):
        if not 0 <= m <= MAX_OCCUPATION:
            raise ValueError(f"{name} must be a non-negative occupation of at most {MAX_OCCUPATION}, got {m}")
    n = min(m_to, m_from)
    k = abs(m_to - m_from)
    arg = lam if m_to >= m_from else -lam
    x = lam * lam
    if n == 0:
        laguerre = 1.0
    else:
        prev = 1.0
        curr = 1.0 + k - x
        for j in range(2, n + 1):
            prev, curr = curr, ((2 * j - 1 + k - x) * curr - (j - 1 + k) * prev) / j
        laguerre = curr
    prefactor = math.exp(-0.5 * x)
    for j in range(1, k + 1):
        prefactor *= arg / math.sqrt(n + j)
    element = prefactor * laguerre
    if not math.isfinite(element):  # lam^2 or the Laguerre recurrence overflowed
        raise OverflowError(f"<{m_to}|D({lam!r})|{m_from}> overflows")
    return element
