"""Lattice analysis of the weight's vanishing set.

The space-time lattice is split into support cells (weight sample >= delta)
and free cells.  Only interior nodes can be free: the two endpoint columns
belong to the boundary, never to the vanishing region.  The checks here are

* topological regularity of the support under a 3x3 morphological opening,
* per-level slices of the free region,
* 4-connected component count of the free region,
* the forward-path condition: every free node at t=0 must reach every free
  node at every later level along lattice paths that move horizontally
  within a level or up one level, never down.

All of them rest on plain numpy.  The opening is an erosion then a dilation,
each the AND (OR) over the 3x3 block around every cell of the support padded
with False cells, so every cell outside the lattice counts as free.  The free
region is read through one run graph, built once per mask
(SpaceTimeMask.graph) from a few vectorized calls: it lists every maximal
free run, numbered level by level from node 0 up, and gives each run the id
range of the runs one level below that share a node with it.  Components
are the runs less the union-find merges along those edges.  Within a level
the reachable set floods whole runs, and moving up reaches exactly the runs
that share a node with a reached run below, so one forward pass over the
runs per level-0 run decides the forward-path condition for all of that
run's nodes, and the witness walks down the graph run by run.  Witness paths
are re-validated cell by cell by an independent checker.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch
from .model import Grid1D, TimeGrid, WeightField

__all__ = [
    "SpaceTimeMask",
    "PathWitness",
    "AdmissibilityReport",
    "build_mask",
    "mask_text",
    "check_regular_support",
    "slices",
    "components",
    "check_assumption",
    "validate_witness",
]


@dataclass(frozen=True)
class RunGraph:
    """Every maximal free run of a mask, numbered level by level from node 0
    up: run r covers nodes first[r]..last[r] of level level[r], and the runs
    one level below that share a node with it are the ids lo[r] <= k < hi[r]
    (none at level 0).  Plain lists, since every reader walks them run by
    run."""

    level: list
    first: list
    last: list
    lo: list
    hi: list


@dataclass(frozen=True)
class SpaceTimeMask:
    """Boolean lattices for the free region and the weight support.

    free[i, j] is True when node i is an interior node and the weight sample
    at (i, j) lies below the support threshold.  supp[i, j] is True when the
    sample reaches the threshold (endpoint rows included, for morphology).
    """

    free: np.ndarray
    supp: np.ndarray
    delta: float
    h: float
    dt: float

    @property
    def n_nodes(self) -> int:
        return self.free.shape[0]

    @property
    def n_levels(self) -> int:
        return self.free.shape[1]

    @cached_property
    def graph(self) -> RunGraph:
        """The maximal free runs and the edges between consecutive levels."""
        # level-major cells, each level closed by a blocked cell, so no run
        # carries on from one level's last node into the next level's first
        width = self.n_nodes + 1
        cells = np.zeros((self.n_levels, width), dtype=bool)
        cells[:, :-1] = self.free.T
        start, stop = np.flatnonzero(np.diff(cells.ravel(), prepend=False)).reshape(-1, 2).T
        level, first = np.divmod(start, width)
        # one level down, run k shares a node with run r when k ends at or
        # after r's first node and starts at or before r's last node
        lo = np.searchsorted(stop, start - width, side="right")
        hi = np.searchsorted(start, stop - width)
        return RunGraph(level.tolist(), first.tolist(), (stop - 1 - level * width).tolist(),
                        lo.tolist(), hi.tolist())


def build_mask(weight: WeightField, grid: Grid1D, tgrid: TimeGrid) -> SpaceTimeMask:
    supp = weight.values >= weight.delta
    free = ~supp
    free[0, :] = False
    free[-1, :] = False
    return SpaceTimeMask(free, supp, weight.delta, grid.h, tgrid.dt)


def mask_text(mask: SpaceTimeMask) -> str:
    """Portable text grid: one line per level (level 0 first), '#' = support."""
    cells = np.where(mask.supp.T, ord("#"), ord(".")).astype(np.uint8)
    newline = np.full((cells.shape[0], 1), ord("\n"), dtype=np.uint8)
    return np.hstack([cells, newline]).tobytes().decode("ascii")


def _box3(a: np.ndarray, op) -> np.ndarray:
    """op (np.logical_and or np.logical_or) over the 3x3 block around each
    cell, reading cells outside the array as False; the block is the product
    of two 3-cell segments, so it is reduced along one axis, then the other."""
    p = np.pad(a, 1)
    rows = op(p[:-2], p[1:-1])
    op(rows, p[2:], out=rows)
    out = op(rows[:, :-2], rows[:, 1:-1])
    return op(out, rows[:, 2:], out=out)


def _opening(supp: np.ndarray) -> np.ndarray:
    """Erosion then dilation of supp by the full 3x3 block."""
    return _box3(_box3(supp, np.logical_and), np.logical_or)


def check_regular_support(mask: SpaceTimeMask) -> bool:
    """Support equals the opening (erosion then dilation) of itself.

    The structuring element is the full 3x3 block, which reproduces every
    axis-aligned indicator region exactly; isolated cells and hairline
    features are flagged as irregular.
    """
    supp = mask.supp
    if not supp.any():
        return True
    return bool(np.array_equal(_opening(supp), supp))


def slices(mask: SpaceTimeMask, j: int) -> np.ndarray:
    """Node indices of the free region at level j."""
    if not 0 <= j < mask.n_levels:
        raise DimensionMismatch(f"level {j} outside 0..{mask.n_levels - 1}")
    return np.flatnonzero(mask.free[:, j])


def components(mask: SpaceTimeMask) -> int:
    """4-connected component count of the free region: the free runs less
    the union-find merges of runs that share a node at consecutive levels."""
    g = mask.graph
    parent = list(range(len(g.level)))

    def root(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    merges = 0
    for r, (lo, hi) in enumerate(zip(g.lo, g.hi)):
        for k in range(lo, hi):
            ra, rb = root(k), root(r)
            if ra != rb:
                parent[rb] = ra
                merges += 1
    return len(parent) - merges


@dataclass(frozen=True)
class PathWitness:
    """A concrete monotone-in-time lattice path, as a list of (node, level)."""

    cells: tuple


def validate_witness(mask: SpaceTimeMask, witness: PathWitness, start, end) -> bool:
    """Independent cell-by-cell check of a path: free cells, legal moves,
    declared endpoints, time never decreasing."""
    cells = witness.cells
    if not cells or cells[0] != tuple(start) or cells[-1] != tuple(end):
        return False
    for i, j in cells:
        if not (0 <= i < mask.n_nodes and 0 <= j < mask.n_levels):
            return False
        if not mask.free[i, j]:
            return False
    for (i0, j0), (i1, j1) in zip(cells, cells[1:]):
        di, dj = i1 - i0, j1 - j0
        if not ((abs(di) == 1 and dj == 0) or (di == 0 and dj == 1)):
            return False
    return True


def _first_unreached(g: RunGraph, n0: int, s: int):
    """One forward pass from level-0 run s (of n0 level-0 runs): the lowest
    id of a run at a level >= 1 that s does not reach, or None.

    A run above level 0 is reached when it shares a node with a reached run
    one level below.  count[r] is the number of reached runs among ids < r,
    so ids lo..hi-1 hold a reached run exactly when count[hi] > count[lo];
    every run before the first unreached one is reached.
    """
    count = [0] * (s + 1) + [1] * (n0 - s)
    for r in range(n0, len(g.level)):
        if count[g.hi[r]] == count[g.lo[r]]:
            return r
        count.append(count[r] + 1)
    return None


@dataclass(frozen=True)
class AdmissibilityReport:
    regular_support: bool
    slices_nonempty: bool
    components: int
    assumption_holds: bool
    failing_pair: tuple | None
    witness: PathWitness | None


def _build_witness(g: RunGraph) -> PathWitness:
    """One path from the first free cell of level 0 to the last free cell of
    the final level, once every run above level 0 is known to be reached
    from level-0 run 0.

    Walking downwards from the target: in the current run, find the node
    nearest the current one (the lower on ties) that is reachable one level
    below, record the horizontal stretch to it, and descend into the run
    below that holds it.  Below level 1 only run 0 is reachable.  The
    collected cells are then reversed into a forward path.
    """
    r = len(g.level) - 1
    cur = g.last[r]
    cells = []
    while g.level[r] > 0:
        j = g.level[r]
        best = None
        for k in range(g.lo[r], g.hi[r]) if j > 1 else (0,):
            # cur clamped into the stretch that runs r and k share
            w = min(max(cur, g.first[k]), g.last[k], g.last[r])
            if best is None or abs(w - cur) < abs(best - cur):
                best, below = w, k
        step = 1 if best >= cur else -1
        cells.extend((i, j) for i in range(cur, best + step, step))
        cur, r = best, below
    y = g.first[0]
    step = 1 if y >= cur else -1
    cells.extend((i, 0) for i in range(cur, y + step, step))
    cells.reverse()
    return PathWitness(tuple(cells))


def check_assumption(mask: SpaceTimeMask) -> AdmissibilityReport:
    """All-pairs forward reachability over the free region.

    Holds when, for every free node y at level 0, the reachable set covers
    the whole free slice at every later level.  On failure the first failing
    pair ((y, 0), (x, j)) in scan order is returned; on success a sample
    witness path to the last free cell of the final level.

    The reachable sets depend on y only through its level-0 run, so one
    forward pass over the run graph is made per run.  Starts are taken in
    ascending node order, so the first failing start is the first node of
    the first failing run, exactly as a scan over every start finds it, and
    the first node of the lowest-id unreached run is the first missed cell
    in level-then-node order.

    A mask needs at least two levels (a lattice has M + 1 >= 3); with one,
    no path leaves level 0, so DimensionMismatch is raised.
    """
    if mask.n_levels < 2:
        raise DimensionMismatch(
            f"the path condition needs at least two levels, got {mask.n_levels}")
    regular = check_regular_support(mask)
    comp_count = components(mask)
    nonempty = bool(mask.free.any(axis=0).all())

    if not nonempty:
        return AdmissibilityReport(regular, False, comp_count, False, None, None)

    g = mask.graph
    n0 = g.level.count(0)
    for s in range(n0):
        r = _first_unreached(g, n0, s)
        if r is not None:
            failing = ((g.first[s], 0), (g.first[r], g.level[r]))
            return AdmissibilityReport(regular, True, comp_count, False, failing, None)
    witness = _build_witness(g)
    return AdmissibilityReport(regular, True, comp_count, True, None, witness)
