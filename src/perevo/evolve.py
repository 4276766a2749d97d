"""Time stepping for the penalized problem and the discrete evolution maps.

One fully implicit (backward Euler) step advances level j to j+1 through

    L_j u^{j+1} = u^j + dt * f^{j+1},
    L_j = I + dt (A_{j+1} + lam M_{j+1}),

where M_j is the diagonal of weight samples at level j.  The penalty sits
inside L_j, so arbitrarily large lam never destabilizes the step.  With the
nonpositive off-diagonal sign pattern each L_j is an M-matrix and the step
map is entrywise nonnegative at every penalty; prepare() certifies this.

prepare() builds each distinct L_j once and factors it (LAPACK dgttrf).  The
weights of interest are piecewise constant in time, so the levels fall into
runs of bitwise-identical coefficient and weight samples (level_runs); every
step into one run shares one matrix and one factorization, and a problem
whose levels all differ gets one per step.

The same stepper runs the hard-wall problem, the lam -> infinity limit in
which the solution lives only on the nodes of the vanishing region: given a
per-level active-node mask, a node inactive at level j+1 gets an identity
row in L_j with a zero right-hand side, and a coupling survives only between
two active nodes.  Each run of active nodes then steps as its own system with
hard Dirichlet walls at the first inactive node on each side.

evolve_state applies the discrete evolution map between two levels.  Because
a composed evolution is literally the same sequence of solves, splitting it
at any intermediate level reproduces the direct result bit for bit.  An
evolution on one thread, every vector and every matrix too narrow to split,
steps with dgtsv on the unfactored rows of L_j: it runs the elimination of
dgttrf and the substitution of dgttrs row by row across all columns at
once, with the same bits, and is the faster of the two.  The columns of a
matrix state evolve independently, so a wide matrix is cut into contiguous
column blocks that step concurrently on the CPUs the process may use; these
step with the dgttrf factors through dgttrs, which releases the GIL, where
scipy's dgtsv wrapper holds it and would serialize the blocks.  Each column
sees the same arithmetic as it would alone, so the result has the same bits
and the same memory order either way.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgtsv, dgttrf, dgttrs

from .errors import DimensionMismatch, InvariantError, LevelOrder, SingularStep
from .model import ProblemSpec, coercivity_shift
from .operator import mesh_peclet_ok, stencil_bands

__all__ = [
    "StepFactorization",
    "Trajectory",
    "EnergyReport",
    "ForcingField",
    "prepare",
    "level_runs",
    "distinct_steps",
    "evolve_state",
    "column_workers",
    "iter_states",
    "mild_solution",
    "energy_report",
    "discrete_v_norm_sq",
    "trajectory_rows",
]


@dataclass(frozen=True)
class ForcingField:
    """Source-term samples on the full lattice; no periodicity is assumed."""

    values: np.ndarray

    @staticmethod
    def from_function(fn, grid, tgrid) -> "ForcingField":
        x = grid.nodes()[:, None]
        t = tgrid.levels()[None, :]  # raw times, not reduced
        vals = np.broadcast_to(np.asarray(fn(x, t), dtype=float),
                               (grid.n + 2, tgrid.M + 1)).copy()
        if not np.all(np.isfinite(vals)):
            raise InvariantError("forcing samples must be finite")
        return ForcingField(vals)

    @staticmethod
    def constant(value, grid, tgrid) -> "ForcingField":
        return ForcingField(np.full((grid.n + 2, tgrid.M + 1), float(value)))


@dataclass(frozen=True)
class StepFactorization:
    """Factored step matrices for one penalty value over a full period.

    rows[j] holds the unfactored bands (dl, d, du) of L_j (levels j -> j+1),
    which dgtsv steps with on one thread; steps[j] is their dgttrf
    factorization (dl, d, du, du2, ipiv), which dgttrs steps the column
    blocks of a split evolution with.  Steps whose levels j+1 lie in one run
    of level_runs share one rows tuple and one factorization, the very same
    tuples.  The rows are read-only: dgtsv works on copies of them.
    positivity certifies that every step map is entrywise nonnegative: the
    off-diagonals are nonpositive at every level and every L_j has positive
    row sums (an M-matrix).
    active is None, or the (M+1, n) hard-wall mask prepare() was given: step
    j then zeroes the right-hand side outside active[j+1].  _kernel_slot holds
    kernel.kernel_matrix's last evolved identity.
    """

    spec: ProblemSpec
    lam: float
    steps: tuple = field(repr=False)  # M entries: a repr would print every factor
    rows: tuple = field(repr=False)
    positivity: bool
    peclet_ok: bool
    active: np.ndarray | None = field(default=None, repr=False)
    _kernel_slot: list = field(default_factory=lambda: [None], init=False, repr=False,
                               compare=False)

    @property
    def n(self) -> int:
        return self.spec.grid.n

    @property
    def M(self) -> int:
        return self.tgrid.M

    @property
    def tgrid(self):
        return self.spec.tgrid

    def solve(self, j: int, rhs: np.ndarray) -> np.ndarray:
        """Step j with the factors: solve L_j x = rhs (a vector, or a matrix of
        columns) by dgttrs; with a mask, rhs is zeroed outside active[j+1]
        first.  The column blocks of a split evolution step with this."""
        if self.active is not None:
            keep = self.active[j + 1].reshape((-1,) + (1,) * (rhs.ndim - 1))
            rhs = np.where(keep, rhs, 0.0)
        if self.n == 2:  # factored with a decoupled third row, see prepare()
            rhs = np.concatenate([rhs, np.zeros((1,) + rhs.shape[1:])])
        return dgttrs(*self.steps[j], rhs)[0][:self.n]


def level_runs(spec: ProblemSpec, active: np.ndarray | None = None) -> np.ndarray:
    """Run id of each level 0..M, counting up from 0 along the levels.

    Consecutive levels share a run when the samples the stencil and the step
    matrices read at them are bitwise identical: all nodes of D and a, the
    interior nodes of b, c0 and the weight, and their rows of active when
    given.  The samples are compared as int64 bits, so 0.0 and -0.0 differ.
    All levels of one run have the same stencil, and all steps into one run
    the same step matrix.
    """
    new = np.zeros(spec.tgrid.M, dtype=bool)  # new[j]: level j+1 starts a run
    c = spec.coeff
    for values in (c.D, c.a, c.b[1:-1], c.c0[1:-1], spec.weight.values[1:-1]):
        if new.all():
            break
        bits = values.view(np.int64)
        new |= (bits[:, 1:] != bits[:, :-1]).any(axis=0)
    if active is not None:
        new |= (active[1:] != active[:-1]).any(axis=1)
    return np.concatenate(([0], np.cumsum(new)))


def distinct_steps(spec: ProblemSpec) -> int:
    """How many step matrices prepare(spec, lam) factors: the runs that levels
    1..M span."""
    runs = level_runs(spec)
    return int(runs[-1] - runs[1]) + 1


def prepare(spec: ProblemSpec, lam: float, active: np.ndarray | None = None) -> StepFactorization:
    """Assemble, factor and certify all step matrices for one penalty value.

    active, an (M+1, n) bool array whose row j marks the nodes allowed at
    level j, turns the steps into hard-wall steps (see StepFactorization):
    L_j keeps a coupling only between two nodes active at level j+1 and has
    an identity row at every inactive one.  The positivity certificate is
    that of the unmasked steps, which implies it for the masked ones: cutting
    a nonpositive coupling or replacing a row by an identity row keeps the
    sign pattern and the positive row sums.

    The stencil, the step matrices, their checks and the certificate are
    evaluated once per run of identical levels (level_runs), and dgttrf runs
    once per run that some step enters.  The unfactored rows are copied once,
    for all runs together, before dgttrf factors them in place.
    """
    if lam < 0:
        raise InvariantError(f"penalty must be >= 0, got {lam}")
    M, dt = spec.tgrid.M, spec.tgrid.dt
    run = level_runs(spec, active)
    starts = np.flatnonzero(np.diff(run, prepend=-1))  # first level of each run
    rows = starts if len(starts) <= M else slice(None)
    lower, diag, upper = stencil_bands(spec, rows)  # row r belongs to run r
    w = np.ascontiguousarray(spec.weight.values[1:-1, rows].T)
    # L_j = I + dt (A + lam M) at level j+1, in dgttrf's band layout;
    # steps 0..M-1 enter the runs run[1]..run[M]
    used = slice(run[1], None)
    dl = lower[used, 1:] * dt
    d = diag[used] * dt + (1.0 + dt * lam * w[used])
    du = upper[used, :-1] * dt
    if active is not None:
        act = active[rows][used]
        cut = ~(act[:, :-1] & act[:, 1:])  # nodes i, i+1 not both active
        dl[cut] = du[cut] = 0.0
        d[~act] = 1.0
    finite = np.isfinite(dl).all(1) & np.isfinite(d).all(1) & np.isfinite(du).all(1)
    bands = dl.copy(), d.copy(), du.copy()  # dgtsv's rows, kept from dgttrf
    for band in bands:
        band.flags.writeable = False
    if spec.grid.n == 2:
        # dgttrf needs n >= 3: append an identity row that couples to nothing
        dl, du = np.pad(dl, ((0, 0), (0, 1))), np.pad(du, ((0, 0), (0, 1)))
        d = np.pad(d, ((0, 0), (0, 1)), constant_values=1.0)
    factors = []
    for r, level in enumerate(starts[used].tolist()):
        step = max(level - 1, 0)  # the first step into this run
        if not finite[r]:
            raise SingularStep(f"non-finite step matrix at step {step}")
        # the rows are factored in place when dgttrf can, with no new arrays
        *lu, info = dgttrf(dl[r], d[r], du[r], overwrite_dl=1, overwrite_d=1, overwrite_du=1)
        if info > 0:
            raise SingularStep(f"factorization failed at step {step}: zero pivot {info}")
        factors.append(tuple(lu))
    unfactored = tuple(zip(*bands))  # (dl, d, du) of each run
    index = (run[1:] - run[1]).tolist()
    steps = tuple(factors[r] for r in index)
    rows = tuple(unfactored[r] for r in index)

    peclet = mesh_peclet_ok(spec)
    m_pattern = np.all(lower <= 0.0) and np.all(upper <= 0.0)
    dominant = np.all(1.0 + dt * (lower[used] + diag[used] + upper[used] + lam * w[used]) > 0.0)
    if not peclet:
        warnings.warn("mesh-Peclet condition violated: advection too strong for this grid, "
                      "sign pattern and positivity are not certified", stacklevel=2)
    return StepFactorization(spec, float(lam), steps, rows, bool(m_pattern and dominant),
                             peclet, active)


def _check_state(F: StepFactorization, v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape[0] != F.n:
        raise DimensionMismatch(f"state has leading dimension {v.shape[0]}, expected {F.n}")
    return v


def _gtsv(F: StepFactorization, j: int, b: np.ndarray) -> np.ndarray:
    """Step j on one thread: solve L_j x = b by dgtsv on the rows of L_j, in
    b's own memory when b is a vector or a Fortran-ordered matrix.  b must be
    a buffer the caller owns; with a mask, its rows outside active[j+1] are
    zeroed first.  dgtsv's info is not read: prepare's dgttrf ran the same
    elimination on the same matrix and found no zero pivot."""
    if F.active is not None:
        b[~F.active[j + 1]] = 0.0
    return dgtsv(*F.rows[j], b, overwrite_b=1)[3]


# Narrower blocks hand the GIL over too often for the solve work between
# hand-offs: 2 x 32 columns of n = 64 gain a third on an idle 2-CPU host but
# can lose time while other tenants of the host steal CPU time, whereas
# 2 x 64 columns of n = 128 keep most of their gain either way.
BLOCK_MIN_COLUMNS = 48


def column_workers() -> int:
    """Most column blocks one evolution runs at once: the usable CPUs."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


class _ColumnPool:
    """Threads that step column blocks, made on the first split and reused.

    A forked child must not reuse the parent's pool, whose threads do not
    exist there, so the child forgets it and makes its own on demand.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._pool = None

    def get(self, workers: int) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(workers, thread_name_prefix="perevo-columns")
            return self._pool

    def forget(self):
        self._lock = threading.Lock()
        self._pool = None


_COLUMN_POOL = _ColumnPool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_COLUMN_POOL.forget)


def _steps(F: StepFactorization, w: np.ndarray, from_level: int, to_level: int) -> np.ndarray:
    for j in range(from_level, to_level):
        w = F.solve(j, w)
    return w


def evolve_state(F: StepFactorization, v: np.ndarray, from_level: int, to_level: int) -> np.ndarray:
    """Discrete evolution map applied to v (a vector, or a matrix of columns).

    A matrix of at least 2 * BLOCK_MIN_COLUMNS columns evolves as contiguous
    column blocks, one per usable CPU at most, each stepped by dgttrs, and
    is stitched back into one Fortran-ordered array.  Anything else evolves
    on the calling thread in one Fortran-ordered copy of v, stepped in place
    by dgtsv.
    """
    if from_level > to_level:
        raise LevelOrder(f"need from_level <= to_level, got {from_level} > {to_level}")
    if not (0 <= from_level and to_level <= F.M):
        raise LevelOrder(f"levels {from_level}..{to_level} outside 0..{F.M}")
    w = _check_state(F, v)
    cpus = k = 1
    if w.ndim == 2 and to_level > from_level:
        cpus = column_workers()
        k = min(cpus, w.shape[1] // BLOCK_MIN_COLUMNS)
    if k <= 1:
        w = np.array(w, order="F")
        for j in range(from_level, to_level):
            w = _gtsv(F, j, w)
        return w
    # the calling thread steps the first block, the pool the others
    cuts = [w.shape[1] * b // k for b in range(k + 1)]
    blocks = list(zip(cuts[:-1], cuts[1:]))
    pool = _COLUMN_POOL.get(cpus - 1)
    futures = [pool.submit(_steps, F, w[:, a:b], from_level, to_level) for a, b in blocks[1:]]
    out = np.empty(w.shape, order="F")
    try:
        a, b = blocks[0]
        out[:, a:b] = _steps(F, w[:, a:b], from_level, to_level)
    finally:
        for (a, b), fut in zip(blocks[1:], futures):
            out[:, a:b] = fut.result()
    return out


@dataclass(frozen=True)
class Trajectory:
    """States u^0..u^M stacked as rows of an (M+1, n) array, row j at level j."""

    states: np.ndarray
    lam: float

    def at_level(self, j: int) -> np.ndarray:
        return self.states[j]


def iter_states(F: StepFactorization, w: np.ndarray, forcing: ForcingField | None = None):
    """Yield the states of one vector w at levels 0..M, w itself first.

    With a forcing, step j adds dt f^{j+1} to its right-hand side; without
    one the steps are the homogeneous step maps.  Every state yielded is a
    new array; w itself is never written.
    """
    f = None if forcing is None else forcing.values[1:-1]
    dt = F.tgrid.dt
    yield w
    for j in range(F.M):
        w = _gtsv(F, j, w.copy() if f is None else w + dt * f[:, j + 1])
        yield w


def mild_solution(F: StepFactorization, u0: np.ndarray,
                  forcing: ForcingField | None = None) -> Trajectory:
    """Solve the forced problem forward from u0 at level 0 over one period.

    The result equals the homogeneous evolution plus the discrete
    variation-of-constants sum of the per-step solves.
    """
    w = _check_state(F, u0)
    if w.ndim != 1:
        raise DimensionMismatch("mild_solution expects a single state vector")
    return Trajectory(np.array(list(iter_states(F, w, forcing))), F.lam)


def discrete_v_norm_sq(spec: ProblemSpec, u: np.ndarray) -> float:
    """First-difference surrogate of the graph norm: h|u|^2 + h|du/h|^2.

    Dirichlet endpoints contribute their zero boundary values to the
    difference sum; at flux endpoints the one-sided difference is dropped and
    a Robin term b0 u_end^2 is added instead.
    """
    h = spec.grid.h
    u = np.asarray(u, dtype=float)
    total = h * float(u @ u)
    left_d = spec.bc.side("left") == "dirichlet"
    right_d = spec.bc.side("right") == "dirichlet"
    pad_l = [0.0] if left_d else []
    pad_r = [0.0] if right_d else []
    ext = np.concatenate([pad_l, u, pad_r])
    diffs = np.diff(ext)
    total += float(diffs @ diffs) / h
    if not left_d:
        total += spec.bc.b0_left * float(u[0]) ** 2
    if not right_d:
        total += spec.bc.b0_right * float(u[-1]) ** 2
    return total


@dataclass(frozen=True)
class EnergyReport:
    """Both sides of the discrete energy inequality and their ratio."""

    lhs: float
    rhs: float
    gamma: float
    ratio: float


def energy_report(F: StepFactorization, traj: Trajectory, forcing: ForcingField | None,
                  gamma: float) -> EnergyReport:
    """Trapezoidal surrogate of the weighted energy balance over the trajectory.

    lhs collects the final half-energy, the accumulated graph norm scaled by
    alpha/4, and the penalty dissipation; rhs holds the amplified initial
    energy plus the source contribution measured in the (upper-bound) lattice
    l2 surrogate of the dual norm.  The ratio lhs/rhs is a diagnostic; it is
    defined as 0 when both sides vanish.
    """
    spec = F.spec
    gamma0 = coercivity_shift(spec.coeff)
    if gamma < gamma0 - 1e-12:
        raise InvariantError(f"gamma={gamma} below the coercivity shift {gamma0}")
    h, dt = spec.grid.h, F.tgrid.dt
    J = traj.states.shape[0] - 1
    tJ = J * dt
    levels = np.arange(J + 1)
    wq = np.full(levels.shape, dt)
    wq[0] *= 0.5
    wq[-1] *= 0.5
    amp = np.exp(2.0 * gamma * (tJ - levels * dt))

    uT = traj.states[-1]
    lhs = 0.5 * h * float(uT @ uT)
    alpha = spec.coeff.alpha
    vnorms = np.array([discrete_v_norm_sq(spec, u) for u in traj.states])
    lhs += 0.25 * alpha * float(np.sum(wq * amp * vnorms))
    if F.lam > 0:
        m = spec.weight.values[1:-1]
        pen = np.array([h * float(np.sum(m[:, j] * u ** 2)) for j, u in enumerate(traj.states)])
        lhs += F.lam * float(np.sum(wq * amp * pen))

    u0 = traj.states[0]
    rhs = 0.5 * math.exp(2.0 * gamma * tJ) * h * float(u0 @ u0)
    if forcing is not None:
        fn = np.array([h * float(np.sum(forcing.values[1:-1, j] ** 2)) for j in levels])
        rhs += float(np.sum(wq * amp * fn)) / alpha

    ratio = lhs / rhs if rhs > 0 else 0.0
    return EnergyReport(lhs, rhs, float(gamma), ratio)


def trajectory_rows(traj: Trajectory, spec: ProblemSpec):
    """Yield (t, x, u) rows over interior nodes in long format."""
    xs = spec.grid.interior()
    dt = spec.tgrid.dt
    for j, state in enumerate(traj.states):
        for x, u in zip(xs, state):
            yield j * dt, x, u
