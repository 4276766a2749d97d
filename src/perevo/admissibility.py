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
region is read through one run-label array, built once per mask
(SpaceTimeMask.runs): level-major, one row per level, holding a unique id for
every maximal free run of every level.  Components are the runs less the
union-find merges of runs that share a node at consecutive levels.
Reachability is computed level by level: within one level the reachable set
floods whole runs, and moving up intersects with the next level's free
cells.  The flood starts from the start node's whole level-0 run, so every
start in one run has the same reachable sets, and one history per level-0
run decides the forward-path condition for all of its nodes.  Witness paths
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
    def runs(self) -> np.ndarray:
        """Level-major (n_levels, n_nodes) int32 labels of the maximal free
        runs: 0 on blocked cells, and ids 1, 2, ... numbered level by level
        from node 0 up, so no two runs of the lattice share an id."""
        free = self.free.T
        starts = free.copy()
        starts[:, 1:] &= ~free[:, :-1]
        ids = np.cumsum(starts, dtype=np.int32).reshape(free.shape)
        ids[~free] = 0
        return ids


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
    runs = mask.runs
    below, above = runs[:-1], runs[1:]
    # two runs share one stretch of nodes or none: keep the stretch's first node
    first = (below > 0) & (above > 0)
    first[:, 1:] &= (below[:, 1:] != below[:, :-1]) | (above[:, 1:] != above[:, :-1])
    n_runs = int(runs.max())
    parent = list(range(n_runs + 1))

    def root(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    merges = 0
    for a, b in zip(below[first].tolist(), above[first].tolist()):
        ra, rb = root(a), root(b)
        if ra != rb:
            parent[rb] = ra
            merges += 1
    return n_runs - merges


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


def _reach_history(mask: SpaceTimeMask, y: int):
    """Reachable sets R_j for a start node y at level 0, one column at a time.

    y enters only through its level-0 run, which is flooded whole.  Run ids
    are unique over the lattice, so one table indexed by id marks the runs
    entered from below; id 0 (blocked) is never marked, since up is free.
    """
    free, runs = mask.free, mask.runs
    history = np.zeros_like(free)
    history[:, 0] = runs[0] == runs[0, y]
    reached = np.zeros(int(runs.max()) + 1, dtype=bool)
    for j in range(1, mask.n_levels):
        up = history[:, j - 1] & free[:, j]
        if not up.any():
            break
        reached[runs[j, up]] = True
        history[:, j] = reached[runs[j]]
    return history


@dataclass(frozen=True)
class AdmissibilityReport:
    regular_support: bool
    slices_nonempty: bool
    components: int
    assumption_holds: bool
    failing_pair: tuple | None
    witness: PathWitness | None


def _build_witness(mask: SpaceTimeMask, history: np.ndarray, y: int,
                   target: tuple) -> PathWitness:
    """Reconstruct one path from (y, 0) to the target using the R_j history.

    Walking downwards from the target: at each level find the entry node of
    the current free run (a cell that was already reachable one level below),
    record the horizontal stretch, and descend.  The collected cells are then
    reversed into a forward path.
    """
    ti, tj = target
    free, runs = mask.free, mask.runs
    cells = []
    cur = ti
    for j in range(tj, 0, -1):
        run = runs[j] == runs[j, cur]
        candidates = np.flatnonzero(run & history[:, j - 1] & free[:, j - 1])
        w = int(candidates[np.argmin(np.abs(candidates - cur))])
        step = 1 if w >= cur else -1
        cells.extend((i, j) for i in range(cur, w + step, step))
        cur = w
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
    history is built per run, from the run's first node.  Starts are taken
    in ascending node order, so the first failing start is the first node
    of the first failing run, exactly as a scan over every start finds it.
    """
    regular = check_regular_support(mask)
    comp_count = components(mask)
    nonempty = bool(mask.free.any(axis=0).all())
    starts = slices(mask, 0)

    if not nonempty or starts.size == 0:
        return AdmissibilityReport(regular, False, comp_count, False, None, None)

    failing = None
    witness = None
    first_history = None
    _, first_of_run = np.unique(mask.runs[0, starts], return_index=True)
    for y in starts[first_of_run]:
        history = _reach_history(mask, int(y))
        if first_history is None:
            first_history = history
        missed = mask.free & ~history
        missed[:, 0] = False
        if missed.any():
            cols = np.flatnonzero(missed.any(axis=0))
            j = int(cols[0])
            x = int(np.flatnonzero(missed[:, j])[0])
            failing = ((int(y), 0), (x, j))
            break

    holds = failing is None
    if holds:
        last = slices(mask, mask.n_levels - 1)
        target = (int(last[-1]), mask.n_levels - 1)
        y0 = int(starts[0])
        witness = _build_witness(mask, first_history, y0, target)
    return AdmissibilityReport(regular, True, comp_count, holds, failing, witness)
