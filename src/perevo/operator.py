"""Assembly of the spatial operator's tridiagonal stencil on the time levels.

The flux-form stencil discretizes  -(D u' + a u)' + b u' + c0 u  on the
interior nodes.  With the face flux

    F_{i+1/2} = D_{i+1/2} (u_{i+1} - u_i)/h + a_{i+1/2} (u_{i+1} + u_i)/2

row i reads  (F_{i-1/2} - F_{i+1/2})/h + b_i (u_{i+1} - u_{i-1})/(2h) + c0_i u_i.
Face coefficients are arithmetic means of the adjacent node samples, which is
exact for the constant-coefficient reference cases.  Advection stays centered,
so the off-diagonals are -D/h^2 +- (a - b)/(2h), with D and a at the face and b
at the node.  Both are nonpositive, the sign pattern the positivity machinery
relies on, exactly when |a - b| * h <= 2 D.  The mesh-Peclet test
max(|a|, |b|) * h <= 2 alpha does not imply this: with b = -a it allows
|a - b| * h up to 4 alpha.

Dirichlet rows simply drop the coupling to the eliminated endpoint.  At a flux
(Neumann/Robin) endpoint the missing face flux is replaced by the boundary
relation (D u' + a u) . nu + b0 u = 0 with the boundary value lumped onto the
nearest unknown, so the pure-Neumann Laplacian keeps zero row sums.

stencil_bands evaluates the stencil for all (or some) time levels in one
vectorized pass, as (levels, n) band arrays; assemble_A returns the (n,) bands
of a single level.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from .errors import DimensionMismatch
from .model import ProblemSpec, coercivity_shift, sample_sup_norms

__all__ = [
    "stencil_bands",
    "assemble_A",
    "mesh_peclet_ok",
    "garding_audit",
]


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
    """max(|a|, |b|) * h <= 2 alpha on the lattice.

    This is not the stencil's sign condition |a - b| * h <= 2 D (see the
    module docstring): it can hold while an off-diagonal is positive."""
    a_sup, b_sup, _ = sample_sup_norms(spec.coeff)
    drift = max(a_sup, b_sup)
    return drift * spec.grid.h <= 2.0 * spec.coeff.alpha


def garding_audit(spec: ProblemSpec) -> float:
    """min over levels j of lambda_min(sym A_j) + gamma0: the exact minimum of
    (u^T A_j u + gamma0 |u|^2) / |u|^2 over all vectors u and time levels j.

    The Garding inequality holds on the lattice when it is nonnegative, as it
    is up to rounding on the supported configurations (constant drift).  The
    symmetric part of a tridiagonal A_j is tridiagonal; a level whose rows
    equal the previous level's is skipped.
    """
    lower, diag, upper = stencil_bands(spec)
    off = 0.5 * (upper[:, :-1] + lower[:, 1:])
    changed = np.ones(len(diag), dtype=bool)
    changed[1:] = (diag[1:] != diag[:-1]).any(axis=1) | (off[1:] != off[:-1]).any(axis=1)
    tol = 2 * np.finfo(float).tiny  # the absolute tolerance dstebz resolves most accurately
    worst = min(eigvalsh_tridiagonal(diag[j], off[j], select="i", select_range=(0, 0), tol=tol)[0]
                for j in np.flatnonzero(changed))
    return float(worst) + coercivity_shift(spec.coeff)
