"""Independent references for the benchmark's output checks.

Nothing here imports perevo.  Each discrete problem the benchmark runs is
rebuilt from its definition with plain numpy (dense matrices, closed forms,
a sine eigenbasis, a queue-based flood fill), so a check never shares a code
path with the code it judges.

All problems are theta = 1 (fully implicit) with D = 1 and Dirichlet ends,
so one step from level j to j+1 solves

    (I + dt (A + lam diag(m(x, t_{j+1} mod T)))) u^{j+1} = u^j,
    A = tridiag(-1, 2, -1) / h^2.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

ENVELOPE_SAFETY = 1.05  # the headroom perevo documents for its Gaussian envelope


def interior_nodes(x_lo: float, x_hi: float, n: int) -> np.ndarray:
    h = (x_hi - x_lo) / (n + 1)
    return x_lo + h * np.arange(1, n + 1)


def laplacian_eigenvalue(L: float, n: int) -> float:
    """Smallest eigenvalue of tridiag(-1, 2, -1)/h^2 on (0, L), h = L/(n+1)."""
    h = L / (n + 1)
    return 2.0 / h ** 2 * (1.0 - math.cos(math.pi * h / L))


def constant_weight_mu(L: float, n: int, M: int, T: float, lam: float) -> float:
    """Exact discrete eigenvalue for the weight m = 1: (M/T) log(1 + dt (lam1 + lam))."""
    dt = T / M
    return (M / T) * math.log(1.0 + dt * (laplacian_eigenvalue(L, n) + lam))


def du_peng_weight(u_lo: float, u_hi: float, t_switch: float):
    """m = 1 outside [u_lo, u_hi) from t_switch on, 0 elsewhere."""
    def m(x, t):
        return np.where((t >= t_switch) & ~((u_lo <= x) & (x < u_hi)), 1.0, 0.0)
    return m


def evolution_snapshots(x_lo, x_hi, n, T, M, weight, lam, levels):
    """Dense evolution of the identity from level 0; returns {level: matrix}."""
    h, dt = (x_hi - x_lo) / (n + 1), T / M
    x = interior_nodes(x_lo, x_hi, n)
    A = (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)) / h ** 2
    X = np.eye(n)
    out = {}
    wanted = set(levels)
    for j in range(M):
        t = ((j + 1) % M) * dt
        X = np.linalg.solve(np.eye(n) + dt * (A + lam * np.diag(weight(x, t))), X)
        if j + 1 in wanted:
            out[j + 1] = X.copy()
    return out


def hard_wall_period_map(x_lo, x_hi, n, T, M, active):
    """Period map with hard walls: step j keeps only nodes where active(x, t_{j+1})."""
    h, dt = (x_hi - x_lo) / (n + 1), T / M
    x = interior_nodes(x_lo, x_hi, n)
    A = (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)) / h ** 2
    X = np.eye(n)
    for j in range(M):
        keep = np.flatnonzero(active(x, ((j + 1) % M) * dt))
        Y = np.zeros_like(X)
        sub = np.eye(keep.size) + dt * A[np.ix_(keep, keep)]
        Y[keep] = np.linalg.solve(sub, X[keep])
        X = Y
    return X


def principal_mu(P: np.ndarray, T: float) -> float:
    return -math.log(float(np.abs(np.linalg.eigvals(P)).max())) / T


def heat_kernel_discrete(x_lo, x_hi, n, T, M, gap):
    """Kernel (I + dt A)^(-gap) / h from the sine eigenbasis of A."""
    h, dt = (x_hi - x_lo) / (n + 1), T / M
    k = np.arange(1, n + 1)
    S = math.sqrt(2.0 / (n + 1)) * np.sin(math.pi * np.outer(k, k) / (n + 1))
    lam = 2.0 / h ** 2 * (1.0 - np.cos(math.pi * k / (n + 1)))
    return (S * (1.0 + dt * lam) ** (-gap)) @ S.T / h


def interval_heat_kernel(x, y, tau, x_lo, x_hi, terms=60):
    """Continuous Dirichlet heat kernel on an interval, by the method of images."""
    L = x_hi - x_lo
    xs, ys = x - x_lo, y - x_lo
    total = 0.0
    for r in range(-terms, terms + 1):
        total += math.exp(-(xs - ys - 2 * r * L) ** 2 / (4 * tau))
        total -= math.exp(-(xs + ys - 2 * r * L) ** 2 / (4 * tau))
    return total / math.sqrt(4 * math.pi * tau)


def envelope_excess(entries, h, tau, Mconst, omega, c):
    """Largest entry minus the safety-factored Gaussian envelope at gap tau."""
    idx = np.arange(entries.shape[0])
    dx2 = (h * (idx[:, None] - idx[None, :])) ** 2
    env = (ENVELOPE_SAFETY * Mconst * math.exp(omega * tau) / math.sqrt(tau)
           * np.exp(-c * dx2 / tau))
    return float((entries - env).max())


def parse_mask(text: str) -> np.ndarray:
    """Free cells (node, level) of a mask grid: '.' cells off the two end columns."""
    rows = text.splitlines()
    free = np.array([[ch == "." for ch in row] for row in rows], dtype=bool).T
    free[0, :] = False
    free[-1, :] = False
    return free


def flood(free: np.ndarray, start, forward_only: bool = True) -> np.ndarray:
    """Cells reachable from start by +-1 node moves and +1 level moves
    (also -1 level moves when forward_only is False)."""
    moves = ((1, 0), (-1, 0), (0, 1)) if forward_only else ((1, 0), (-1, 0), (0, 1), (0, -1))
    seen = np.zeros_like(free)
    seen[start] = True
    queue = deque([start])
    n_nodes, n_levels = free.shape
    while queue:
        i, j = queue.popleft()
        for di, dj in moves:
            a, b = i + di, j + dj
            if 0 <= a < n_nodes and 0 <= b < n_levels and free[a, b] and not seen[a, b]:
                seen[a, b] = True
                queue.append((a, b))
    return seen


def component_count(free: np.ndarray) -> int:
    left = free.copy()
    count = 0
    while left.any():
        i, j = (int(v[0]) for v in np.nonzero(left))
        left &= ~flood(free, (i, j), forward_only=False)
        count += 1
    return count


def first_missed(free: np.ndarray, start):
    """First free cell at a later level that start cannot reach, in level-major
    then node order, or None."""
    missed = free & ~flood(free, start)
    missed[:, 0] = False
    cols = np.flatnonzero(missed.any(axis=0))
    if cols.size == 0:
        return None
    j = int(cols[0])
    return int(np.flatnonzero(missed[:, j])[0]), j


def path_condition(free: np.ndarray):
    """Forward-path condition checked directly: every free level-0 cell must
    reach every free cell of every later level.  Returns (holds, failing_pair).

    When the level-0 free cells form one run, every start reaches the others
    within level 0, so one flood from the first start decides all of them.
    """
    starts = np.flatnonzero(free[:, 0])
    if starts.size == 0:
        return False, None
    one_run = bool(np.all(np.diff(starts) == 1))
    for y in (starts[:1] if one_run else starts):
        x = first_missed(free, (int(y), 0))
        if x is not None:
            return False, ((int(y), 0), x)
    return True, None


def witness_ok(free: np.ndarray, cells) -> bool:
    """A path of free cells, each move one node sideways or one level up."""
    if not cells:
        return False
    n_nodes, n_levels = free.shape
    for i, j in cells:
        if not (0 <= i < n_nodes and 0 <= j < n_levels and free[i, j]):
            return False
    return all((abs(i1 - i0) == 1 and j1 == j0) or (i1 == i0 and j1 == j0 + 1)
               for (i0, j0), (i1, j1) in zip(cells, cells[1:]))
