"""Assembly of the spatial operator's tridiagonal stencil on the time levels.

The flux-form stencil discretizes  -(D u' + a u)' + b u' + c0 u  on the
interior nodes.  With the face flux

    F_{i+1/2} = D_{i+1/2} (u_{i+1} - u_i)/h + a_{i+1/2} (u_{i+1} + u_i)/2

row i reads  (F_{i-1/2} - F_{i+1/2})/h + b_i (u_{i+1} - u_{i-1})/(2h) + c0_i u_i.
Face coefficients are arithmetic means of the adjacent node samples, which is
exact for the constant-coefficient reference cases.  Advection stays centered;
under the mesh-Peclet condition max(|a|, |b|) * h <= 2 alpha both off-diagonals
are nonpositive, the sign pattern the positivity machinery relies on.

Dirichlet rows simply drop the coupling to the eliminated endpoint.  At a flux
(Neumann/Robin) endpoint the missing face flux is replaced by the boundary
relation (D u' + a u) . nu + b0 u = 0 with the boundary value lumped onto the
nearest unknown, so the pure-Neumann Laplacian keeps zero row sums.

stencil_bands evaluates the stencil for all (or some) time levels in one
vectorized pass, as (levels, n) band arrays; assemble_A returns the (n,) bands
of a single level.  band_matvec applies bands to a vector or to the columns of
a matrix.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch
from .model import ProblemSpec, coercivity_shift

__all__ = [
    "band_matvec",
    "stencil_bands",
    "assemble_A",
    "mesh_peclet_ok",
    "garding_audit",
]


def band_matvec(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
                u: np.ndarray) -> np.ndarray:
    """Tridiagonal product with a vector or the columns of a matrix."""
    shape = (-1,) + (1,) * (u.ndim - 1)
    out = diag.reshape(shape) * u
    out[:-1] += upper[:-1].reshape(shape) * u[1:]
    out[1:] += lower[1:].reshape(shape) * u[:-1]
    return out


def stencil_bands(spec: ProblemSpec, levels=slice(None)):
    """Bands (lower, diag, upper) of the operator at the given time levels.

    For a slice of levels each band is a C-ordered (levels, n) array, row k
    belonging to the k-th selected level; for one level index it is an (n,)
    array.  The entries lower[0] and upper[n-1] of a level are unused and zero.
    """
    h, n = spec.grid.h, spec.grid.n
    D = spec.coeff.D[:, levels]
    a = spec.coeff.a[:, levels]
    bi = spec.coeff.b[1:-1, levels]
    ci = spec.coeff.c0[1:-1, levels]

    Dh = 0.5 * (D[:-1] + D[1:])  # faces 0..n
    ah = 0.5 * (a[:-1] + a[1:])
    h2 = h * h

    lower = -Dh[:-1] / h2 + ah[:-1] / (2 * h) - bi / (2 * h)
    upper = -Dh[1:] / h2 - ah[1:] / (2 * h) + bi / (2 * h)
    diag = (Dh[:-1] + Dh[1:]) / h2 + (ah[:-1] - ah[1:]) / (2 * h) + ci
    lower[0] = 0.0
    upper[-1] = 0.0
    if spec.bc.side("left") != "dirichlet":
        # replace the missing left-face flux by the boundary relation,
        # boundary value lumped onto node 1
        diag[0] = spec.bc.b0_left / h + Dh[1] / h2 - ah[1] / (2 * h) - bi[0] / (2 * h) + ci[0]
    if spec.bc.side("right") != "dirichlet":
        diag[-1] = (Dh[n - 1] / h2 + ah[n - 1] / (2 * h) + spec.bc.b0_right / h
                    + bi[-1] / (2 * h) + ci[-1])
    return tuple(np.ascontiguousarray(band.T) for band in (lower, diag, upper))


def assemble_A(spec: ProblemSpec, j: int):
    """Bands (lower, diag, upper) of the operator at time level j (0 <= j <= M)."""
    if not 0 <= j <= spec.tgrid.M:
        raise DimensionMismatch(f"time level {j} outside 0..{spec.tgrid.M}")
    return stencil_bands(spec, j)


def mesh_peclet_ok(spec: ProblemSpec) -> bool:
    """max(|a|, |b|) * h <= 2 alpha on the lattice."""
    drift = max(float(np.abs(spec.coeff.a).max()), float(np.abs(spec.coeff.b).max()))
    return drift * spec.grid.h <= 2.0 * spec.coeff.alpha


def garding_audit(spec: ProblemSpec, levels=None, n_vectors: int = 100, seed: int = 0) -> float:
    """Smallest value of h u^T A u + gamma0 h |u|^2 over random vectors.

    Nonnegative up to rounding on the supported configurations (constant
    drift); returns the minimum so callers can assert or warn.
    """
    rng = np.random.default_rng(seed)
    gamma0 = coercivity_shift(spec.coeff)
    h = spec.grid.h
    if levels is None:
        levels = sorted({0, spec.tgrid.M // 2, spec.tgrid.M})
    worst = np.inf
    for j in levels:
        # row k is the k-th vector drawn, as if drawn one at a time
        U = rng.standard_normal((n_vectors, spec.grid.n)).T
        forms = h * np.einsum("ik,ik->k", U, band_matvec(*assemble_A(spec, j), U) + gamma0 * U)
        worst = min(worst, float(forms.min()))
    return float(worst)
