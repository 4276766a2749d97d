"""Independent reference computations used to check the library.

Everything here is deliberately written from scratch against the underlying
mathematics (closed forms, image series, one global dense solve, a plain
queue-based flood fill) so the tests never share code paths with the
implementations they judge.
"""

import math
from collections import deque

import numpy as np
import scipy.linalg


def mode_eigenvalue(grid, k: int) -> float:
    """k-th eigenvalue of the second-difference matrix with Dirichlet ends."""
    L = grid.x_hi - grid.x_lo
    h = grid.h
    return 2.0 / h**2 * (1.0 - math.cos(k * math.pi * h / L))


def sine_mode(grid, k: int) -> np.ndarray:
    """k-th eigenvector samples of the Dirichlet second-difference matrix."""
    i = np.arange(1, grid.n + 1)
    return np.sin(k * math.pi * i / (grid.n + 1))


def unit_l2h(v: np.ndarray, h: float) -> np.ndarray:
    return v / math.sqrt(h * float(v @ v))


def interval_heat_kernel(x, y, tau, x_lo, x_hi, terms=60):
    """Dirichlet heat kernel on an interval by the method of images."""
    L = x_hi - x_lo
    xs, ys = x - x_lo, y - x_lo
    total = 0.0
    for r in range(-terms, terms + 1):
        total += math.exp(-(xs - ys - 2 * r * L) ** 2 / (4 * tau))
        total -= math.exp(-(xs + ys - 2 * r * L) ** 2 / (4 * tau))
    return total / math.sqrt(4 * math.pi * tau)


def dense_step_matrix(spec, lam, j):
    """Dense I + dt (A + lam m) at level j, written entry by entry from the flux
    form with arithmetic-mean face coefficients (Dirichlet ends only)."""
    assert spec.bc.side("left") == spec.bc.side("right") == "dirichlet"
    n, h, dt = spec.grid.n, spec.grid.h, spec.tgrid.dt
    D, a, b, c0 = (f[:, j] for f in (spec.coeff.D, spec.coeff.a, spec.coeff.b, spec.coeff.c0))
    m = spec.weight.values[:, j]
    L = np.eye(n)
    for row in range(n):
        k = row + 1  # node index including the left endpoint
        d_w, d_e = (D[k - 1] + D[k]) / 2, (D[k] + D[k + 1]) / 2
        a_w, a_e = (a[k - 1] + a[k]) / 2, (a[k] + a[k + 1]) / 2
        L[row, row] += dt * ((d_w + d_e) / h**2 + (a_w - a_e) / (2 * h) + c0[k] + lam * m[k])
        if row > 0:
            L[row, row - 1] = dt * (-d_w / h**2 + a_w / (2 * h) - b[k] / (2 * h))
        if row < n - 1:
            L[row, row + 1] = dt * (-d_e / h**2 - a_e / (2 * h) + b[k] / (2 * h))
    return L


def dense_theta_trajectory(F, u0, forcing_values):
    """Solve the whole space-time system in one dense linear solve (theta = 1).

    Unknowns are the stacked states u^1..u^M; equation j couples levels j and
    j+1 through the implicit step.  Cross-checks sequential stepping.
    """
    spec = F.spec
    n, M, dt = spec.grid.n, spec.tgrid.M, spec.tgrid.dt
    assert spec.theta == 1.0
    big = np.zeros((n * M, n * M))
    rhs = np.zeros(n * M)
    for j in range(M):
        big[j * n:(j + 1) * n, j * n:(j + 1) * n] = dense_step_matrix(spec, F.lam, j + 1)
        if j > 0:
            big[j * n:(j + 1) * n, (j - 1) * n:j * n] = -np.eye(n)
        rhs[j * n:(j + 1) * n] = dt * forcing_values[1:-1, j + 1]
    rhs[:n] += u0
    sol = np.linalg.solve(big, rhs)
    return [u0.copy()] + [sol[j * n:(j + 1) * n] for j in range(M)]


def flood_reachable(mask, start):
    """Plain queue-based reachability over +-1 horizontal and +1 level moves."""
    free = mask.free
    seen = np.zeros_like(free)
    q = deque([start])
    seen[start] = True
    n_nodes, n_levels = free.shape
    while q:
        i, j = q.popleft()
        for di, dj in ((1, 0), (-1, 0), (0, 1)):
            ii, jj = i + di, j + dj
            if 0 <= ii < n_nodes and 0 <= jj < n_levels and free[ii, jj] and not seen[ii, jj]:
                seen[ii, jj] = True
                q.append((ii, jj))
    return seen


def dense_period_map(F):
    """Period map assembled from explicit dense solves (theta = 1 only)."""
    spec = F.spec
    assert spec.theta == 1.0
    P = np.eye(spec.grid.n)
    for j in range(spec.tgrid.M):
        P = np.linalg.solve(dense_step_matrix(spec, F.lam, j + 1), P)
    return P


def eig_distances_loop(samples_a, samples_b, h, q):
    """Row-by-row l^q distance between sign-aligned unit rows (zero rows kept)."""
    def norm(v):
        if math.isinf(q):
            return float(np.abs(v).max())
        return float((h * np.sum(np.abs(v) ** q)) ** (1.0 / q))

    def aligned(v):
        nrm = norm(v)
        if nrm == 0:
            return v.copy()
        u = v / nrm
        return -u if u[int(np.argmax(np.abs(u)))] < 0 else u

    out = np.empty(samples_a.shape[0])
    for j in range(samples_a.shape[0]):
        out[j] = norm(aligned(samples_a[j]) - aligned(samples_b[j]))
    return out


def mask_text_per_cell(supp):
    """Text grid written cell by cell: one line per level, '#' for support."""
    n_nodes, n_levels = supp.shape
    lines = ["".join("#" if supp[i, j] else "." for i in range(n_nodes))
             for j in range(n_levels)]
    return "\n".join(lines) + "\n"
