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

Reachability is computed level by level: within one level the reachable set
floods maximal free runs, and moving up intersects with the next level's
free cells.  Witness paths are re-validated cell by cell by an independent
checker.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

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


def check_regular_support(mask: SpaceTimeMask) -> bool:
    """Support equals the opening (erosion then dilation) of itself.

    The structuring element is the full 3x3 block, which reproduces every
    axis-aligned indicator region exactly; isolated cells and hairline
    features are flagged as irregular.
    """
    supp = mask.supp
    if not supp.any():
        return True
    structure = np.ones((3, 3), dtype=bool)
    opened = ndimage.binary_dilation(ndimage.binary_erosion(supp, structure),
                                     structure)
    return bool(np.array_equal(opened, supp))


def slices(mask: SpaceTimeMask, j: int) -> np.ndarray:
    """Node indices of the free region at level j."""
    if not 0 <= j < mask.n_levels:
        raise DimensionMismatch(f"level {j} outside 0..{mask.n_levels - 1}")
    return np.flatnonzero(mask.free[:, j])


def components(mask: SpaceTimeMask):
    """4-connected component count and labels of the free region."""
    labels, count = ndimage.label(mask.free)
    return int(count), labels


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


def _runs(col: np.ndarray) -> np.ndarray:
    """Label maximal free runs in one level; 0 marks blocked cells."""
    starts = col & ~np.concatenate(([False], col[:-1]))
    labels = np.cumsum(starts)
    return np.where(col, labels, 0)


def _reach_history(mask: SpaceTimeMask, y: int):
    """Reachable sets R_j for a start node y at level 0, one column at a time."""
    free = mask.free
    n_levels = mask.n_levels
    history = np.zeros_like(free)
    labels0 = _runs(free[:, 0])
    history[:, 0] = labels0 == labels0[y]
    for j in range(1, n_levels):
        up = history[:, j - 1] & free[:, j]
        if not up.any():
            break
        labels = _runs(free[:, j])
        hit = np.unique(labels[up])
        history[:, j] = np.isin(labels, hit[hit > 0])
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
    free = mask.free
    cells = []
    cur = ti
    for j in range(tj, 0, -1):
        labels = _runs(free[:, j])
        run = labels == labels[cur]
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
    """
    regular = check_regular_support(mask)
    comp_count, _ = components(mask)
    nonempty = bool(mask.free.any(axis=0).all())
    starts = slices(mask, 0)

    if not nonempty or starts.size == 0:
        return AdmissibilityReport(regular, False, comp_count, False, None, None)

    failing = None
    witness = None
    first_history = None
    for y in starts:
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
