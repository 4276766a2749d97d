"""Kernel matrices of the discrete evolution maps and their Gaussian envelope.

The kernel between levels s < t is the matrix K with column j equal to the
evolved unit impulse e_j divided by h, so that

    (evolution of u)_i  =  sum_j K[i, j] u_j h

approximates the integral operator.  Entries are nonnegative whenever the
step maps are, they only decrease when the penalty grows, and for the plain
heat case they are dominated by a Gaussian profile

    M exp(omega tau) tau^(-1/2) exp(-c dx^2 / tau),      tau = t - s,

whose constants are recovered here by least squares over the kernel entries.

Kernels are usually requested as a ladder of widening gaps from one start
level.  Each StepFactorization keeps the last evolved identity, so a kernel
from the same start level and a later end level resumes from it instead of
stepping from the start level again.  Splitting an evolution at any level
gives the same bits, so a resumed kernel equals a fresh one bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientData, LevelMismatch, LevelOrder
from .evolve import StepFactorization, evolve_state

__all__ = [
    "KernelMatrix",
    "GaussianFit",
    "kernel_matrix",
    "check_monotone_in_lambda",
    "fit_gaussian",
    "envelope_violation",
]

ENTRY_FLOOR = 1e-14      # entries below this never enter the log fit
ENVELOPE_SAFETY = 1.05   # multiplicative headroom on the fitted amplitude


@dataclass(frozen=True)
class KernelMatrix:
    """Kernel samples K[i, j] ~ k(x_i, x_j) between two time levels."""

    entries: np.ndarray
    s_level: int
    t_level: int
    lam: float
    h: float
    dt: float

    @property
    def tau(self) -> float:
        return (self.t_level - self.s_level) * self.dt

    def same_levels(self, other: "KernelMatrix") -> bool:
        return self.s_level == other.s_level and self.t_level == other.t_level


def kernel_matrix(F: StepFactorization, s_level: int, t_level: int) -> KernelMatrix:
    """Materialize the kernel by evolving all unit impulses at once.

    The evolved identity is kept on F as a read-only (s_level, t_level,
    state) slot.  A request from the same s_level that ends at or after the
    kept t_level continues from the kept state; any other request, an
    out-of-range one included, starts from the identity.  Either way the slot
    then holds this request's state.  The slot is swapped in one assignment,
    so concurrent callers on one F can at worst repeat work, never read a
    wrong state.
    """
    if s_level >= t_level:
        raise LevelOrder(f"need s_level < t_level, got {s_level} >= {t_level}")
    kept = F._kernel_slot[0]
    if kept is not None and kept[0] == s_level and kept[1] <= t_level <= F.M:
        _, from_level, state = kept
    else:
        from_level, state = s_level, np.eye(F.n)
    if from_level < t_level:
        state = evolve_state(F, state, from_level, t_level)
        state.flags.writeable = False
        F._kernel_slot[0] = (s_level, t_level, state)
    cols = state / F.spec.grid.h
    return KernelMatrix(cols, s_level, t_level, F.lam, F.spec.grid.h, F.tgrid.dt)


def check_monotone_in_lambda(K1: KernelMatrix, K2: KernelMatrix) -> float:
    """Largest positive excess of the stronger-penalty kernel over the weaker.

    Zero (up to rounding) certifies entrywise monotone decay in the penalty.
    """
    if not K1.same_levels(K2):
        raise LevelMismatch("kernels live on different level pairs")
    if K2.lam < K1.lam:
        raise LevelMismatch(f"expected lam1 <= lam2, got {K1.lam} > {K2.lam}")
    return float(max(0.0, float((K2.entries - K1.entries).max())))


@dataclass(frozen=True)
class GaussianFit:
    """Fitted envelope constants and the worst signed violation.

    max_violation <= 0 means every checked entry sits below the envelope
    (with the multiplicative safety factor applied).
    """

    Mconst: float
    omega: float
    cconst: float
    max_violation: float


def _fit_data(K: KernelMatrix):
    n = K.entries.shape[0]
    idx = np.arange(n)
    dx2 = (K.h * (idx[:, None] - idx[None, :])) ** 2
    tau = K.tau
    mask = K.entries >= ENTRY_FLOOR
    k = K.entries[mask]
    xi = dx2[mask] / tau
    y = np.log(k) + 0.5 * math.log(tau)
    return y, np.full(y.shape, tau), xi


def fit_gaussian(kernels) -> GaussianFit:
    """Least-squares Gaussian envelope over several level pairs.

    Needs at least three kernels whose time gaps span a factor >= 4.  The
    amplitude is calibrated so the envelope touches the data from above
    (never below 1), then reported with the safety factor folded into the
    violation check.
    """
    kernels = list(kernels)
    if len(kernels) < 3:
        raise InsufficientData(f"need >= 3 level pairs, got {len(kernels)}")
    taus = [K.tau for K in kernels]
    if max(taus) < 4.0 * min(taus):
        raise InsufficientData("time gaps must span a factor >= 4")

    ys, ts, xis = [], [], []
    for K in kernels:
        y, t, xi = _fit_data(K)
        ys.append(y)
        ts.append(t)
        xis.append(xi)
    y = np.concatenate(ys)
    t = np.concatenate(ts)
    xi = np.concatenate(xis)
    if y.size < 16:
        raise InsufficientData("too few kernel entries above the fit floor")

    design = np.column_stack([np.ones_like(t), t, -xi])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    _, omega, c = (float(v) for v in coef)

    # push the amplitude up until the envelope dominates every fitted entry
    log_m = float(np.max(y - omega * t + c * xi))
    m_const = max(math.exp(log_m), 1.0)

    fit = GaussianFit(m_const, omega, c, 0.0)
    violation = max(envelope_violation(fit, K) for K in kernels)
    return GaussianFit(m_const, omega, c, violation)


def envelope_violation(fit: GaussianFit, K: KernelMatrix) -> float:
    """Worst signed excess of kernel entries over the safety-factored envelope."""
    n = K.entries.shape[0]
    idx = np.arange(n)
    dx2 = (K.h * (idx[:, None] - idx[None, :])) ** 2
    tau = K.tau
    env = (ENVELOPE_SAFETY * fit.Mconst * math.exp(fit.omega * tau) / math.sqrt(tau)
           * np.exp(-fit.cconst * dx2 / tau))
    return float((K.entries - env).max())
