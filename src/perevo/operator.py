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
vectorized pass, as (levels, n) band arrays; assemble_A wraps a single level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .model import ProblemSpec, coercivity_shift

__all__ = [
    "TridiagonalOperator",
    "PenaltyDiagonal",
    "band_matvec",
    "stencil_bands",
    "assemble_A",
    "assemble_penalty",
    "bilinear_form",
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


@dataclass(frozen=True)
class TridiagonalOperator:
    """Tridiagonal stencil at one time level, n interior unknowns.

    lower[i] couples row i to node i-1 (lower[0] unused and zero), upper[i]
    couples row i to node i+1 (upper[n-1] unused and zero).
    """

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    time_level: int
    h: float

    @property
    def n(self) -> int:
        return self.diag.shape[0]

    def matvec(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if u.shape[0] != self.n:
            raise DimensionMismatch(f"expected leading dimension {self.n}, got {u.shape}")
        return band_matvec(self.lower, self.diag, self.upper, u)

    def row_sums(self) -> np.ndarray:
        return self.lower + self.diag + self.upper

    def offdiag_nonpositive(self) -> bool:
        return bool(np.all(self.lower <= 0.0) and np.all(self.upper <= 0.0))


@dataclass(frozen=True)
class PenaltyDiagonal:
    """Weight samples m(x_i, t_j) on the interior nodes; entrywise >= 0."""

    values: np.ndarray
    time_level: int


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


def assemble_A(spec: ProblemSpec, j: int) -> TridiagonalOperator:
    """Assemble the operator at time level j (0 <= j <= M)."""
    if not 0 <= j <= spec.tgrid.M:
        raise DimensionMismatch(f"time level {j} outside 0..{spec.tgrid.M}")
    return TridiagonalOperator(*stencil_bands(spec, j), j, spec.grid.h)


def assemble_penalty(spec: ProblemSpec, j: int) -> PenaltyDiagonal:
    """Penalty diagonal m(x_i, t_j) at level j; the factor lam stays symbolic."""
    if not 0 <= j <= spec.tgrid.M:
        raise DimensionMismatch(f"time level {j} outside 0..{spec.tgrid.M}")
    return PenaltyDiagonal(spec.weight.values[1:-1, j].copy(), j)


def bilinear_form(A: TridiagonalOperator, u: np.ndarray, v: np.ndarray) -> float:
    """Discrete bilinear form h * v^T (A u)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != (A.n,) or v.shape != (A.n,):
        raise DimensionMismatch(f"expected vectors of length {A.n}")
    return float(A.h * v @ A.matvec(u))


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
        A = assemble_A(spec, j)
        for _ in range(n_vectors):
            u = rng.standard_normal(spec.grid.n)
            worst = min(worst, bilinear_form(A, u, u) + gamma0 * h * float(u @ u))
    return float(worst)
