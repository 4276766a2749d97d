"""Independent reference computations used to check the library.

Everything here is deliberately written from scratch against the underlying
mathematics (closed forms, image series, one global dense solve, a plain
queue-based flood fill) or taken from scipy.ndimage (opening and component
labelling), so the tests never share code paths with the implementations
they judge.  The one package import, staircase_geometry, only supplies the
snapped corner positions of the staircase scenario.
"""

import hashlib
import math
from collections import deque

import numpy as np
import scipy.linalg
from scipy import ndimage

from perevo.model import staircase_geometry


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
    form with arithmetic-mean face coefficients.

    Row k is -(F_e - F_w) / h + b (u_{k+1} - u_{k-1}) / (2h) + (c0 + lam m) u_k,
    with F = D u' + a u through a face: F_e = d_e (u_{k+1} - u_k) / h
    + a_e (u_k + u_{k+1}) / 2, and F_w alike.  A Dirichlet end contributes its
    zero boundary value.  At a flux end the boundary relation
    (D u' + a u) nu + b0 u = 0, nu = -1 at x_lo and +1 at x_hi, gives the
    outer face's flux, b0 u_1 at x_lo and -b0 u_n at x_hi, and the
    difference for b u' reads the end node's own value in place of the
    boundary value.
    """
    n, h, dt = spec.grid.n, spec.grid.h, spec.tgrid.dt
    D, a, b, c0 = (f[:, j] for f in (spec.coeff.D, spec.coeff.a, spec.coeff.b, spec.coeff.c0))
    m = spec.weight.values[:, j]
    flux_left = spec.bc.side("left") != "dirichlet"
    flux_right = spec.bc.side("right") != "dirichlet"
    L = np.eye(n)
    for k in range(1, n + 1):  # node index including the left endpoint
        d_w, d_e = (D[k - 1] + D[k]) / 2, (D[k] + D[k + 1]) / 2
        a_w, a_e = (a[k - 1] + a[k]) / 2, (a[k] + a[k + 1]) / 2
        # each term as {node: coefficient}; nodes 0 and n + 1 are the ends
        west = {k - 1: -d_w / h + a_w / 2, k: d_w / h + a_w / 2}
        east = {k: -d_e / h + a_e / 2, k + 1: d_e / h + a_e / 2}
        before, after = k - 1, k + 1
        if k == 1 and flux_left:
            west, before = {k: spec.bc.b0_left}, k
        if k == n and flux_right:
            east, after = {k: -spec.bc.b0_right}, k
        row = {k: c0[k] + lam * m[k]}
        for node, coef in east.items():
            row[node] = row.get(node, 0.0) - coef / h
        for node, coef in west.items():
            row[node] = row.get(node, 0.0) + coef / h
        row[after] = row.get(after, 0.0) + b[k] / (2 * h)
        row[before] = row.get(before, 0.0) - b[k] / (2 * h)
        for node, coef in row.items():
            if 1 <= node <= n:
                L[k - 1, node - 1] += dt * coef
    return L


def dense_spacetime_trajectory(F, u0, forcing_values):
    """Solve the whole space-time system in one dense linear solve.

    Unknowns are the stacked states u^1..u^M; equation j couples levels j and
    j+1 through the implicit step.  Cross-checks sequential stepping.
    """
    spec = F.spec
    n, M, dt = spec.grid.n, spec.tgrid.M, spec.tgrid.dt
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


def first_unreachable_pair(mask):
    """First ((y, 0), (x, j)) with (x, j) free at a level j >= 1 that a
    queue-based flood from the free level-0 node y misses; starts y ascend,
    and each start's misses are scanned level by level, node by node.  None
    when every free level-0 node reaches every later free cell."""
    free = mask.free
    n_nodes, n_levels = free.shape
    for y in range(n_nodes):
        if not free[y, 0]:
            continue
        seen = flood_reachable(mask, (y, 0))
        for j in range(1, n_levels):
            for x in range(n_nodes):
                if free[x, j] and not seen[x, j]:
                    return (y, 0), (x, j)
    return None


def witness_walk(mask):
    """Cell-by-cell witness path from the first free level-0 node y to the
    last free cell of the final level, over the flood from (y, 0).  Walking
    down from the target, each level's free stretch around the current node
    is scanned for the flooded nodes one level below; the nearest one, the
    lower on ties, is where the path goes down.  Returns the cells in
    forward order, or None when the target is not flooded."""
    free = mask.free
    n_nodes, n_levels = free.shape
    y = next(i for i in range(n_nodes) if free[i, 0])
    seen = flood_reachable(mask, (y, 0))
    top = n_levels - 1
    cur = max(i for i in range(n_nodes) if free[i, top])
    if not seen[cur, top]:
        return None
    cells = []
    for j in range(top, 0, -1):
        lo = hi = cur
        while lo > 0 and free[lo - 1, j]:
            lo -= 1
        while hi < n_nodes - 1 and free[hi + 1, j]:
            hi += 1
        entry = None
        for i in range(lo, hi + 1):
            if seen[i, j - 1] and (entry is None or abs(i - cur) < abs(entry - cur)):
                entry = i
        step = 1 if entry >= cur else -1
        cells += [(i, j) for i in range(cur, entry + step, step)]
        cur = entry
    step = 1 if y >= cur else -1
    cells += [(i, 0) for i in range(cur, y + step, step)]
    return tuple(reversed(cells))


def ndimage_opening(cells):
    """Opening (erosion then dilation) by the full 3x3 block, from
    scipy.ndimage with its default border_value=0."""
    block = np.ones((3, 3), dtype=bool)
    return ndimage.binary_dilation(ndimage.binary_erosion(cells, block), block)


def ndimage_component_count(cells):
    """4-connected component count, from scipy.ndimage.label's default cross."""
    return int(ndimage.label(cells)[1])


def dense_period_map(F):
    """Period map assembled from explicit dense solves."""
    spec = F.spec
    P = np.eye(spec.grid.n)
    for j in range(spec.tgrid.M):
        P = np.linalg.solve(dense_step_matrix(spec, F.lam, j + 1), P)
    return P


def dense_hard_wall_period_map(spec, active):
    """Hard-wall period map from dense restricted solves.

    active(x, t) marks the nodes the solution may occupy; step j evaluates it
    at the interior nodes and the reduced time of level j+1, solves the zero-
    penalty step matrix restricted to those rows and columns, and puts zeros
    everywhere else.
    """
    n, M, dt = spec.grid.n, spec.tgrid.M, spec.tgrid.dt
    xs = spec.grid.interior()
    P = np.eye(n)
    for j in range(M):
        keep = np.flatnonzero(active(xs, ((j + 1) % M) * dt))
        nxt = np.zeros((n, n))
        if keep.size:
            L = dense_step_matrix(spec, 0.0, j + 1)[np.ix_(keep, keep)]
            nxt[keep] = np.linalg.solve(L, P[keep])
        P = nxt
    return P


def slab_membership(slabs):
    """active(x, t) read straight off raw (t0, t1, region) slabs: half-open in t
    and, for each (lo, hi) of a region, in x; broadcasts over x and t."""
    def active(x, t):
        x, t = np.asarray(x), np.asarray(t)
        free = np.zeros(np.broadcast_shapes(x.shape, t.shape), dtype=bool)
        for t0, t1, region in slabs:
            if region in ("all", "empty"):
                inside = np.full(x.shape, region == "all")
            else:
                inside = np.any([(lo <= x) & (x < hi) for lo, hi in region], axis=0)
            free |= (t0 <= t) & (t < t1) & inside
        return free
    return active


def counterexample_pieces(spec):
    """Seven raw slabs tracing the free region of the default staircase weight,
    at the corners staircase_geometry snaps onto the spec's lattice."""
    (x0, x1, x2, x3, x4, x5), (t0, t1, t2, t3, t4, t5) = staircase_geometry(
        spec.grid, spec.tgrid)
    return [
        (0.0, t0, "all"),
        (t0, t1, ((x0, x1),)),
        (t1, t2, ((x0, x1), (x2, x5))),
        (t2, t3, ((x0, x1), (x2, x3), (x4, x5))),
        (t3, t4, ((x0, x3), (x4, x5))),
        (t4, t5, ((x4, x5),)),
        (t5, spec.tgrid.T, "all"),
    ]


def eig_distances_loop(samples_a, samples_b, h):
    """Row-by-row h-weighted l2 distance between sign-aligned unit rows (zero
    rows kept)."""
    def norm(v):
        return float((h * np.sum(np.abs(v) ** 2.0)) ** 0.5)

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


def row_digest(spec):
    """ProblemSpec.digest's value, hashed row by row: SHA-256 of the head
    (grid, period, the literal 1.0, boundary data, delta, alpha) and then of
    each lattice row's tobytes(), node 0 first, in the order D, a, b, c0, m."""
    g, t, bc = spec.grid, spec.tgrid, spec.bc
    head = (f"{g.x_lo!r},{g.x_hi!r},{g.n},{t.T!r},{t.M},1.0,"
            f"{bc.kind},{bc.b0_left!r},{bc.b0_right!r},{bc.kind_left},{bc.kind_right},"
            f"{spec.weight.delta!r},{spec.coeff.alpha!r}")
    hsh = hashlib.sha256(head.encode())
    c = spec.coeff
    for lattice in (c.D, c.a, c.b, c.c0, spec.weight.values):
        for row in lattice:
            hsh.update(row.tobytes())
    return hsh.hexdigest()
