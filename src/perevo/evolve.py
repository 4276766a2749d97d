"""Time stepping for the penalized problem and the discrete evolution maps.

One step of the theta scheme advances level j to j+1 through

    L_j u^{j+1} = R_j u^j + dt * f^{j+theta},
    L_j = I + theta dt (A_{j+1} + lam M_{j+1}),
    R_j = I - (1 - theta) dt (A_j + lam M_j),

where M_j is the diagonal of weight samples at level j.  The penalty sits
inside L_j, so arbitrarily large lam never destabilizes the step.  For
theta = 1 with the nonpositive off-diagonal sign pattern each L_j is an
M-matrix and the step map is entrywise nonnegative; prepare() certifies this.

prepare() factors every L_j once (LAPACK dgttrf); every later solve, and so
every evolution, period map and kernel, reuses those factors through dgttrs.

The same stepper runs the hard-wall problem, the lam -> infinity limit in
which the solution lives only on the nodes of the vanishing region: given a
per-level active-node mask, a node inactive at level j+1 gets an identity
row in L_j with a zero right-hand side, and a coupling survives only between
two active nodes.  Each run of active nodes then steps as its own system with
hard Dirichlet walls at the first inactive node on each side.

evolve_state applies the discrete evolution map between two levels.  Because
a composed evolution is literally the same sequence of solves, splitting it
at any intermediate level reproduces the direct result bit for bit.  The
columns of a matrix state evolve independently, so a wide matrix is cut into
contiguous column blocks that step concurrently on the CPUs the process may
use (dgttrs releases the GIL); each column sees the same arithmetic as it
would alone, so the result has the same bits and the same memory order.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .errors import DimensionMismatch, InvariantError, LevelOrder, SingularStep
from .model import ProblemSpec, coercivity_shift
from .operator import band_matvec, mesh_peclet_ok, stencil_bands

__all__ = [
    "StepFactorization",
    "Trajectory",
    "EnergyReport",
    "ForcingField",
    "prepare",
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

    bands = (lower, diag, upper) and weight hold the stencil and the weight
    samples m(x_i, t_j) as (M+1, n) arrays, row j at level j; lu = (dl, d, du,
    du2, ipiv) stacks the dgttrf factors of L_j (levels j -> j+1) in row j.
    positivity certifies that every step map is entrywise nonnegative: the
    off-diagonals are nonpositive at every level, every L_j has positive row
    sums (an M-matrix), and for theta < 1 the explicit diagonal is >= 0.
    active is None, or the (M+1, n) hard-wall mask prepare() was given: solve
    j then zeroes the right-hand side outside active[j+1], and the couplings
    of bands row j < M keep only pairs of nodes that are both active at level
    j+1.  _kernel_slot holds kernel.kernel_matrix's last evolved identity.
    """

    spec: ProblemSpec
    lam: float
    bands: tuple
    weight: np.ndarray
    lu: tuple
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

    def explicit(self, j: int, v: np.ndarray) -> np.ndarray:
        """Right-hand side R_j v of step j (v itself when theta = 1)."""
        if self.spec.theta >= 1.0:
            return v
        fac = (1.0 - self.spec.theta) * self.tgrid.dt
        shape = (-1,) + (1,) * (v.ndim - 1)
        Av = band_matvec(*(band[j] for band in self.bands), v)
        return v - fac * (Av + self.lam * self.weight[j].reshape(shape) * v)

    def solve(self, j: int, rhs: np.ndarray) -> np.ndarray:
        """Solve L_j x = rhs (a vector, or a matrix of columns); with a mask,
        rhs is zeroed outside active[j+1] first."""
        if self.active is not None:
            keep = self.active[j + 1].reshape((-1,) + (1,) * (rhs.ndim - 1))
            rhs = np.where(keep, rhs, 0.0)
        if self.n == 2:  # factored with a decoupled third row, see prepare()
            rhs = np.concatenate([rhs, np.zeros((1,) + rhs.shape[1:])])
        return dgttrs(*(f[j] for f in self.lu), rhs)[0][:self.n]

    def step_once(self, j: int, v: np.ndarray) -> np.ndarray:
        """Apply the single step map from level j to level j+1."""
        return self.solve(j, self.explicit(j, v))


def prepare(spec: ProblemSpec, lam: float, active: np.ndarray | None = None) -> StepFactorization:
    """Assemble, factor and certify all step matrices for one penalty value.

    active, an (M+1, n) bool array whose row j marks the nodes allowed at
    level j, turns the steps into hard-wall steps (see StepFactorization).
    The positivity certificate is that of the unmasked steps, which implies
    it for the masked ones: cutting a nonpositive coupling or replacing a row
    by an identity row keeps the sign pattern and the positive row sums.
    """
    if lam < 0:
        raise InvariantError(f"penalty must be >= 0, got {lam}")
    M, dt, theta = spec.tgrid.M, spec.tgrid.dt, spec.theta
    lower, diag, upper = stencil_bands(spec)
    weight = np.ascontiguousarray(spec.weight.values[1:-1, :].T)
    # L_j = I + theta dt (A + lam M) at level j+1, in dgttrf's band layout
    s = theta * dt
    dl = lower[1:, 1:] * s
    d = diag[1:] * s + (1.0 + s * lam * weight[1:])
    du = upper[1:, :-1] * s
    bands = (lower, diag, upper)
    if active is not None:
        cut = ~(active[1:, :-1] & active[1:, 1:])  # nodes i, i+1 not both active at j+1
        dl[cut] = du[cut] = 0.0
        d[~active[1:]] = 1.0
        # the explicit part of step j reads bands row j
        bands = (lower.copy(), diag, upper.copy())
        bands[0][:-1, 1:][cut] = bands[2][:-1, :-1][cut] = 0.0
    finite = np.isfinite(dl).all(1) & np.isfinite(d).all(1) & np.isfinite(du).all(1)
    if spec.grid.n == 2:
        # dgttrf needs n >= 3: append an identity row that couples to nothing
        dl, du = np.pad(dl, ((0, 0), (0, 1))), np.pad(du, ((0, 0), (0, 1)))
        d = np.pad(d, ((0, 0), (0, 1)), constant_values=1.0)
    du2, ipiv = np.empty((M, d.shape[1] - 2)), np.empty(d.shape, dtype=np.int32)
    for j in range(M):
        if not finite[j]:
            raise SingularStep(f"non-finite step matrix at step {j}")
        dl[j], d[j], du[j], du2[j], ipiv[j], info = dgttrf(dl[j], d[j], du[j])
        if info > 0:
            raise SingularStep(f"factorization failed at step {j}: zero pivot {info}")

    peclet = mesh_peclet_ok(spec)
    m_pattern = np.all(lower <= 0.0) and np.all(upper <= 0.0)
    dominant = np.all(1.0 + s * (lower[1:] + diag[1:] + upper[1:] + lam * weight[1:]) > 0.0)
    explicit_ok = True
    if theta < 1.0:
        explicit_ok = np.all(1.0 - (1.0 - theta) * dt * (diag[:-1] + lam * weight[:-1]) >= 0.0)
        if not explicit_ok:
            warnings.warn("theta < 1 mesh-ratio check failed: explicit part has negative "
                          "entries, positivity is not certified", stacklevel=2)
    if not peclet:
        warnings.warn("mesh-Peclet condition violated: advection too strong for this grid, "
                      "sign pattern and positivity are not certified", stacklevel=2)
    return StepFactorization(spec, float(lam), bands, weight, (dl, d, du, du2, ipiv),
                             bool(m_pattern and dominant and explicit_ok), peclet, active)


def _check_state(F: StepFactorization, v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape[0] != F.n:
        raise DimensionMismatch(f"state has leading dimension {v.shape[0]}, expected {F.n}")
    return v.copy()


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
        w = F.step_once(j, w)
    return w


def evolve_state(F: StepFactorization, v: np.ndarray, from_level: int, to_level: int) -> np.ndarray:
    """Discrete evolution map applied to v (a vector, or a matrix of columns).

    A matrix of at least 2 * BLOCK_MIN_COLUMNS columns evolves as contiguous
    column blocks, one per usable CPU at most, and is stitched back into the
    Fortran-ordered array the serial loop returns.
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
        return _steps(F, w, from_level, to_level)
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

    With a forcing, step j adds dt f^{j+theta} = dt ((1-theta) f_j + theta
    f_{j+1}) to its right-hand side, which keeps the scheme's order; without
    one the steps are the homogeneous step maps.
    """
    dt, theta = F.tgrid.dt, F.spec.theta
    yield w
    for j in range(F.M):
        if forcing is None:
            w = F.step_once(j, w)
        else:
            f = forcing.values[1:-1]
            w = F.solve(j, F.explicit(j, w) + dt * ((1.0 - theta) * f[:, j] + theta * f[:, j + 1]))
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
        pen = np.array([h * float(np.sum(F.weight[j] * u ** 2))
                        for j, u in enumerate(traj.states)])
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
