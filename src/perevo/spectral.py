"""Period map, its spectral radius, and the periodic principal eigenpair.

The period map P advances a state across one full period.  Its spectral
radius r determines the principal eigenvalue through mu = -log(r)/T, and the
periodic eigenfunction is rebuilt from the eigenvector w by

    u(t_j) = exp(mu t_j) * (evolution of w from level 0 to j).

P is entrywise nonnegative under the positivity certificate, so the natural
solver is power iteration with a Rayleigh-quotient estimate; a second,
deflated pass estimates the gap to the next eigenvalue.  A numerically
nilpotent period map (every state dies within one period) has no eigenpair;
that case is reported through the trivial flag with mu = +inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, TrivialLimit
from .evolve import StepFactorization, evolve_state, iter_states, prepare
from .model import ProblemSpec

__all__ = [
    "MonodromyMatrix",
    "SpectralResult",
    "PeriodicEigenfunction",
    "monodromy",
    "spectral_radius",
    "principal_pair",
    "periodic_eigenfunction",
    "periodic_samples",
    "R_FLOOR",
]

#: below this spectral-radius estimate the period map counts as nilpotent;
#: chosen as an underflow guard, far below any resolvable eigenvalue
R_FLOOR = 1e-250

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 20000


@dataclass(frozen=True)
class MonodromyMatrix:
    """Dense period map in the nodal basis, with its provenance."""

    P: np.ndarray
    lam: float
    positivity: bool
    period: float
    h: float

    @property
    def n(self) -> int:
        return self.P.shape[0]


@dataclass(frozen=True)
class SpectralResult:
    """Spectral radius r, principal eigenvalue mu = -log(r)/T, eigenvector w.

    w is normalized in the h-weighted l2 norm and entrywise nonnegative for
    positive period maps.  trivial marks the nilpotent case (mu = +inf).
    """

    lam: float
    r: float
    mu: float
    w: np.ndarray
    residual: float
    eigengap: float
    iterations: int
    trivial: bool


def _l2h(v: np.ndarray, h: float) -> float:
    return math.sqrt(h * float(v @ v))


def monodromy(F: StepFactorization) -> MonodromyMatrix:
    """Evolve the identity across one period, column by column."""
    P = evolve_state(F, np.eye(F.n), 0, F.M)
    return MonodromyMatrix(P, F.lam, F.positivity, F.tgrid.T, F.spec.grid.h)


def _deflated_second(P: np.ndarray, w: np.ndarray, h: float, r: float,
                     iters: int = 300) -> float:
    """Crude second-eigenvalue magnitude from a power pass orthogonal to w."""
    n = P.shape[0]
    if n < 2:
        return 0.0
    v = np.ones(n)
    v[1::2] = -1.0
    ww = h * float(w @ w)
    v = v - w * (h * float(w @ v) / ww)
    nv = _l2h(v, h)
    if nv == 0.0:
        return 0.0
    v /= nv
    est_prev = None
    for _ in range(iters):
        z = P @ v
        z = z - w * (h * float(w @ z) / ww)
        nz = _l2h(z, h)
        if nz == 0.0 or not np.isfinite(nz):
            return 0.0
        est = nz
        v = z / nz
        if est_prev is not None and abs(est - est_prev) <= 1e-8 * max(est, 1e-300):
            break
        est_prev = est
    return float(est)


def spectral_radius(P: MonodromyMatrix, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
                    start: np.ndarray | None = None) -> SpectralResult:
    """Power iteration from the all-ones vector, h-weighted l2 normalization.

    Stops when the residual |P w - r w| drops below tol * r; raises
    NoConvergence at the iteration cap (a symptom of a vanishing gap).  The
    returned pair is re-verified outside the loop.  A given start must be a
    finite vector of length n whose h-weighted norm is neither 0 nor inf.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    A, h, T = P.P, P.h, P.period
    n = P.n
    w = np.ones(n) if start is None else np.asarray(start, dtype=float).copy()
    if w.shape != (n,):
        raise ValueError(f"start must have shape ({n},), got {w.shape}")
    if not np.isfinite(w).all():
        raise ValueError("start must be finite")
    with np.errstate(over="ignore"):  # an overflowing norm is rejected below
        norm = _l2h(w, h)
    if not 0.0 < norm < math.inf:
        raise ValueError(f"start must have a nonzero, finite norm, got {norm}")
    w /= norm

    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        z = A @ w
        nz = _l2h(z, h)
        if nz <= R_FLOOR:
            return SpectralResult(P.lam, float(nz), math.inf, w, 0.0, 0.0,
                                  iterations, True)
        r = h * float(w @ z)  # Rayleigh quotient; w has unit h-norm
        resid = _l2h(z - r * w, h)
        w = z / nz
        if r > 0 and resid <= tol * r:
            converged = True
            break
    if not converged:
        raise NoConvergence(max_iter, r_estimate=float(r), residual=float(resid))

    # independent re-verification of the returned pair
    z = A @ w
    r = h * float(w @ z)
    resid = _l2h(z - r * w, h)
    if r <= R_FLOOR:
        return SpectralResult(P.lam, float(r), math.inf, w, float(resid), 0.0,
                              iterations, True)

    second = _deflated_second(A, w, h, r)
    gap = max(r - second, 0.0)
    mu = -math.log(r) / T
    return SpectralResult(P.lam, float(r), float(mu), w, float(resid), float(gap),
                          iterations, False)


def principal_pair(spec: ProblemSpec, lam: float, tol: float = DEFAULT_TOL,
                   max_iter: int = DEFAULT_MAX_ITER) -> SpectralResult:
    """Convenience composition: prepare, build the period map, power-iterate."""
    F = prepare(spec, lam)
    return spectral_radius(monodromy(F), tol=tol, max_iter=max_iter)


@dataclass(frozen=True)
class PeriodicEigenfunction:
    """Samples u(t_j) of the periodic eigenfunction, one row per level."""

    samples: np.ndarray
    mu: float
    defect: float

    def at_level(self, j: int) -> np.ndarray:
        return self.samples[j]


def periodic_samples(F: StepFactorization, w: np.ndarray, mu: float) -> np.ndarray:
    """Rows u(t_j) = exp(mu t_j) * (evolution of w from level 0 to j), j = 0..M."""
    dt = F.tgrid.dt
    return np.array([math.exp(mu * j * dt) * state for j, state in enumerate(iter_states(F, w))])


def periodic_eigenfunction(F: StepFactorization, res: SpectralResult) -> PeriodicEigenfunction:
    """Rebuild the periodic eigenfunction from a converged eigenpair.

    The defect |u(T) - u(0)| / |u(0)| measures how far the reconstruction is
    from closing the period; it inherits the eigenpair residual.
    """
    if res.trivial or not math.isfinite(res.mu):
        raise TrivialLimit("no eigenfunction: the period map is numerically nilpotent")
    samples = periodic_samples(F, res.w, res.mu)
    h = F.spec.grid.h
    num = math.sqrt(h * float((samples[-1] - samples[0]) @ (samples[-1] - samples[0])))
    den = math.sqrt(h * float(samples[0] @ samples[0]))
    return PeriodicEigenfunction(samples, res.mu, num / den if den > 0 else 0.0)
