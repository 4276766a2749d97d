"""Assembly of the spatial operator's tridiagonal stencil on the time levels.

The flux-form stencil discretizes  -(D u' + a u)' + b u' + c0 u  on the
interior nodes.  With the face flux

    F_{i+1/2} = D_{i+1/2} (u_{i+1} - u_i)/h + a_{i+1/2} (u_{i+1} + u_i)/2

row i reads  (F_{i-1/2} - F_{i+1/2})/h + b_i (u_{i+1} - u_{i-1})/(2h) + c0_i u_i.
Face coefficients are arithmetic means of the adjacent node samples, which is
exact for the constant-coefficient reference cases.  Advection stays centered,
so the off-diagonals are -D/h^2 +- (a - b)/(2h), with D and a at the face and b
at the node.  Both are nonpositive exactly when |a - b| * h <= 2 D.  That sign
pattern is necessary for a nonnegative step map but not sufficient: a flux
end with drift can keep it and still give a step that is not an M-matrix,
which evolve.prepare's certificate tests.

Dirichlet rows simply drop the coupling to the eliminated endpoint.  At a flux
(Neumann/Robin) endpoint the missing face flux is replaced by the boundary
relation (D u' + a u) . nu + b0 u = 0 with the boundary value lumped onto the
nearest unknown, so the pure-Neumann Laplacian keeps zero row sums.

stencil_bands evaluates the stencil for all (or some) time levels in one
vectorized pass, as (levels, n) band arrays; assemble_A returns the (n,) bands
of a single level.  garding_audit finds the smallest eigenvalue of each
level's symmetric part with LAPACK dstebz (bisection), called through the
function pointer scipy.linalg.cython_lapack exports (_lapack.bind).
"""

from __future__ import annotations

import ctypes

import numpy as np

from ._lapack import bind
from .errors import DimensionMismatch, InvariantError
from .model import ProblemSpec, coercivity_shift

__all__ = [
    "stencil_bands",
    "assemble_A",
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


#: dstebz's C signature, (range, order, n, vl, vu, il, iu, abstol, d, e, m,
#: nsplit, w, iblock, isplit, work, iwork, info), with double as d
DSTEBZ_SIGNATURE = ("void (char *, char *, int *, d *, d *, int *, int *, d *, d *, d *, "
                    "int *, int *, d *, int *, int *, d *, int *, int *)")

_dstebz = bind("dstebz", DSTEBZ_SIGNATURE)


def _smallest_eigenvalues(diag: np.ndarray, off: np.ndarray, levels, tol: float) -> list:
    """Smallest eigenvalue of the symmetric tridiagonal matrix with diagonal
    diag[j] and off-diagonal off[j], for each j in levels, by dstebz to the
    absolute tolerance tol.

    diag and off are C-ordered float64 (levels, n) and (levels, n - 1)
    arrays; anything else raises InvariantError, as dstebz would read past
    their rows.  dstebz is asked as scipy.linalg.eigvalsh_tridiagonal(
    select="i", select_range=(0, 0)) asks it: by index (RANGE 'I', IL = IU =
    1, VL and VU unused and 0), in matrix order (ORDER 'E').  Like that
    function, this raises ValueError on a sample that is not finite, on which
    bisection has no bound, and LinAlgError when dstebz reports a failure."""
    n = diag.shape[-1]
    if not (diag.ndim == 2 and off.shape == (len(diag), n - 1)
            and diag.dtype == off.dtype == np.float64
            and diag.flags.c_contiguous and off.flags.c_contiguous):
        raise InvariantError(f"dstebz needs C-ordered float64 (levels, n) and (levels, n - 1) "
                             f"arrays, got {diag.shape} {diag.dtype} and {off.shape} {off.dtype}")
    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        raise ValueError("array must not contain infs or NaNs")
    w, work = np.empty(n), np.empty(4 * n)
    iblock, isplit, iwork = (np.empty(k * n, dtype=np.intc) for k in (1, 1, 3))
    size, one, m, nsplit, info = (ctypes.c_int(v) for v in (n, 1, 0, 0, 0))
    bound, abstol = ctypes.c_double(0.0), ctypes.c_double(tol)
    fixed = [ctypes.byref(v) for v in (m, nsplit)] + [
        ctypes.c_void_p(a.ctypes.data) for a in (w, iblock, isplit, work, iwork)]
    smallest = []
    for j in levels:
        _dstebz(b"I", b"E", ctypes.byref(size), ctypes.byref(bound), ctypes.byref(bound),
                ctypes.byref(one), ctypes.byref(one), ctypes.byref(abstol),
                ctypes.c_void_p(diag[j].ctypes.data), ctypes.c_void_p(off[j].ctypes.data),
                *fixed, ctypes.byref(info))
        if info.value != 0 or m.value != 1:
            raise np.linalg.LinAlgError(f"dstebz failed at level {j}: info {info.value}, "
                                        f"{m.value} eigenvalues")
        smallest.append(float(w[0]))
    return smallest


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
    worst = min(_smallest_eigenvalues(diag, off, np.flatnonzero(changed), tol))
    return worst + coercivity_shift(spec.coeff)
