"""Period map, its spectral radius, and the periodic principal eigenpair.

The period map P advances a state across one full period.  Its spectral
radius r determines the principal eigenvalue through mu = -log(r)/T, and the
periodic eigenfunction is rebuilt from the eigenvector w by

    u(t_j) = exp(mu t_j) * (evolution of w from level 0 to j).

At large penalties P lies below the range of float64 (its entries are about
(1 + dt lam)^-M), so it is kept as P = 2^-sigma * P_hat with an integer
exponent sigma (evolve.evolve_rescaled); sigma is 0 unless P's largest entry
lies below evolve.RESCALE_BELOW.  Then r = 2^-sigma * r_hat and

    mu = -(log(r_hat) - sigma log 2) / T,

and the eigenfunction is rebuilt from the rescaled evolution of w.

P is entrywise nonnegative under the positivity certificate, so the natural
solver is power iteration with a Rayleigh-quotient estimate.  The gap to the
next eigenvalue magnitude, which only the eigen report prints, is read off a
dense eigendecomposition of P (eigengap).  A map whose power iterates fall
below R_FLOOR has no eigenpair; that case is reported through the trivial
flag with mu = +inf.  A penalized map is invertible, and rescaled, so it
does not reach R_FLOOR through underflow; a hard-wall map can be nilpotent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, TrivialLimit
from .evolve import LN2, StepFactorization, evolve_rescaled, prepare, rescaled_trajectory
from .model import ProblemSpec

__all__ = [
    "MonodromyMatrix",
    "SpectralResult",
    "PeriodicEigenfunction",
    "monodromy",
    "spectral_radius",
    "eigengap",
    "principal_pair",
    "periodic_eigenfunction",
    "periodic_samples",
    "R_FLOOR",
]

#: below this spectral-radius estimate of P_hat the period map counts as
#: nilpotent; far below any resolvable eigenvalue
R_FLOOR = 1e-250

#: the one stopping rule every caller above spectral_radius runs power iteration to
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 20000


@dataclass(frozen=True)
class MonodromyMatrix:
    """Dense period map in the nodal basis, with its provenance.

    P holds P_hat = 2^sigma times the period map (see the module docstring);
    with sigma = 0 it is the period map itself.
    """

    P: np.ndarray
    lam: float
    positivity: bool
    period: float
    h: float
    sigma: int = 0

    @property
    def n(self) -> int:
        return self.P.shape[0]


@dataclass(frozen=True)
class SpectralResult:
    """Spectral radius r, principal eigenvalue mu, eigenvector w.

    r and residual belong to the map that was iterated, P_hat = 2^sigma P;
    the period map's own are 2^-sigma times them, and
    mu = -(log(r) - sigma log 2)/T.  w is normalized in the h-weighted l2
    norm and entrywise nonnegative for positive period maps.  trivial marks
    a map whose power iterates fell below R_FLOOR (mu = +inf).
    """

    lam: float
    r: float
    mu: float
    w: np.ndarray
    residual: float
    iterations: int
    trivial: bool
    sigma: int = 0


def _l2h(v: np.ndarray, h: float) -> float:
    return math.sqrt(h * float(v @ v))


def monodromy(F: StepFactorization) -> MonodromyMatrix:
    """Evolve the identity across one period, column by column, rescaled
    (evolve.evolve_rescaled)."""
    P, sigma = evolve_rescaled(F, np.eye(F.n), 0, F.M)
    return MonodromyMatrix(P, F.lam, F.positivity, F.tgrid.T, F.spec.grid.h, sigma)


def eigengap(P: MonodromyMatrix) -> float:
    """|r1| - |r2|: the two largest eigenvalue magnitudes of P_hat apart,
    from np.linalg.eigvals; 0.0 for a 1 x 1 map."""
    if P.n < 2:
        return 0.0
    mags = np.sort(np.abs(np.linalg.eigvals(P.P)))
    return float(mags[-1] - mags[-2])


def spectral_radius(P: MonodromyMatrix, tol: float = DEFAULT_TOL,
                    max_iter: int = DEFAULT_MAX_ITER) -> SpectralResult:
    """Power iteration on P_hat from the all-ones vector, h-weighted l2
    normalization.

    Stops when the residual |P w - r w| drops below tol * r; raises
    NoConvergence at the iteration cap (a symptom of a vanishing gap).  The
    returned pair is re-verified outside the loop.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    A, h, T = P.P, P.h, P.period
    w = np.ones(P.n)
    w /= _l2h(w, h)

    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        z = A @ w
        nz = _l2h(z, h)
        if nz <= R_FLOOR:
            return SpectralResult(P.lam, float(nz), math.inf, w, 0.0, iterations, True, P.sigma)
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
        return SpectralResult(P.lam, float(r), math.inf, w, float(resid), iterations, True, P.sigma)

    mu = -(math.log(r) - P.sigma * LN2) / T
    return SpectralResult(P.lam, float(r), float(mu), w, float(resid), iterations, False, P.sigma)


def principal_pair(spec: ProblemSpec, lam: float) -> SpectralResult:
    """Prepare, build the period map and power-iterate it to the default rule."""
    return spectral_radius(monodromy(prepare(spec, lam)))


@dataclass(frozen=True)
class PeriodicEigenfunction:
    """Samples u(t_j) of the periodic eigenfunction, one row per level."""

    samples: np.ndarray
    defect: float


def periodic_samples(F: StepFactorization, w: np.ndarray, mu: float) -> np.ndarray:
    """Rows u(t_j) = exp(mu t_j) * (evolution of w from level 0 to j), j = 0..M.

    The evolution is rescaled (evolve.rescaled_trajectory), row j holding
    2^sigma_j times it, so row j is scaled by exp(mu t_j - sigma_j log 2):
    neither factor alone need be representable."""
    samples, sigmas = rescaled_trajectory(F, w)
    for j, (row, sigma) in enumerate(zip(samples, sigmas)):
        row *= math.exp(mu * j * F.tgrid.dt - sigma * LN2)
    return samples


def periodic_eigenfunction(F: StepFactorization, res: SpectralResult) -> PeriodicEigenfunction:
    """Rebuild the periodic eigenfunction from a converged eigenpair.

    The defect |u(T) - u(0)| / |u(0)| measures how far the reconstruction is
    from closing the period; it inherits the eigenpair residual.
    """
    if res.trivial or not math.isfinite(res.mu):
        raise TrivialLimit("no eigenfunction: the power iterates fell below R_FLOOR")
    samples = periodic_samples(F, res.w, res.mu)
    h = F.spec.grid.h
    num = math.sqrt(h * float((samples[-1] - samples[0]) @ (samples[-1] - samples[0])))
    den = math.sqrt(h * float(samples[0] @ samples[0]))
    return PeriodicEigenfunction(samples, num / den if den > 0 else 0.0)
