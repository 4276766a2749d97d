"""Time stepping for the penalized problem and the discrete evolution maps.

One fully implicit (backward Euler) step advances level j to j+1 through

    L_j u^{j+1} = u^j + dt * f^{j+1},
    L_j = I + dt (A_{j+1} + lam M_{j+1}),

where M_j is the diagonal of weight samples at level j.  The penalty sits
inside L_j, so arbitrarily large lam never destabilizes the step.  With the
nonpositive off-diagonal sign pattern each L_j is an M-matrix and the step
map is entrywise nonnegative at every penalty; prepare() certifies this.

prepare() builds each distinct L_j once and certifies that it has no zero
pivot.  The weights of interest are piecewise constant in time, so the
levels fall into runs of bitwise-identical coefficient and weight samples
(level_runs); every step into one run shares one matrix, and a problem whose
levels all differ gets one per step.

The same stepper runs the hard-wall problem, the lam -> infinity limit in
which the solution lives only on the nodes of the vanishing region: given a
per-level active-node mask, a node inactive at level j+1 gets an identity
row in L_j with a zero right-hand side, and a coupling survives only between
two active nodes.  Each run of active nodes then steps as its own system with
hard Dirichlet walls at the first inactive node on each side.

evolve_state applies the discrete evolution map between two levels.  Because
a composed evolution is literally the same sequence of solves, splitting it
at any intermediate level reproduces the direct result bit for bit.  Every
evolution steps one Fortran-ordered copy of its state in place, and every
step is one LAPACK dgtsv solve across all columns at once, on a copy of the
rows of L_j (dgtsv overwrites the rows it is given).  dgtsv is called
through the function pointer that scipy.linalg.cython_lapack exports, with
ctypes, which releases the GIL for the call.  A matrix state steps in a
buffer whose columns start n | 1 numbers apart: at a power-of-two stride
every column of a block maps to the same few L1 cache sets.  The columns of
a matrix state evolve independently, so a wide matrix is cut into contiguous
column blocks, views of that one buffer, that step concurrently on the CPUs
the process may use, each with its own copy of the rows.  Each column sees
the same arithmetic as it would alone, so the result has the same bits and
the same memory order either way.

A penalized state decays like (1 + dt lam)^-j and leaves the range of
float64 at large penalties, through slow subnormal arithmetic to exact
zeros.  evolve_rescaled keeps it in range: once a column block's largest
|entry| falls below RESCALE_BELOW, the block is multiplied by a power of two
and the exponent is added to the block's own sigma.  dgtsv is linear and a
power of two scales every operation exactly, so the rescaled state is 2^sigma
times the plain one, bit for bit wherever the plain one stays normal.  The
largest |entry| shrinks by at most ||L_j||_inf in step j, so a block reads
its max only when the sum of ln ||L_j||_inf since its last reading says it
may have crossed the threshold.  Hard-wall steps zero the inactive nodes,
which breaks that bound, so they are never rescaled.
"""

from __future__ import annotations

import ctypes
import math
import os
import re
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cython_lapack

from .errors import DimensionMismatch, InvariantError, LevelOrder, SingularStep
from .model import ProblemSpec, coercivity_shift
from .operator import mesh_peclet_ok, stencil_bands

__all__ = [
    "StepFactorization",
    "EnergyReport",
    "ForcingField",
    "prepare",
    "level_runs",
    "distinct_steps",
    "evolve_state",
    "evolve_rescaled",
    "column_workers",
    "mild_solution",
    "rescaled_trajectory",
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
    """Certified step matrices for one penalty value over a full period.

    rows[j] holds the bands of L_j (levels j -> j+1) in dgtsv's order, as one
    read-only array of 3n - 2 numbers: the n - 1 entries below the diagonal,
    the n diagonal entries and the n - 1 entries above it.  Steps whose
    levels j+1 lie in one run of level_runs share one rows array, the very
    same array.  dgtsv overwrites the rows it solves with, so every
    evolution, and every column block of one, steps on its own copy.
    positivity certifies that every step map is entrywise nonnegative: the
    off-diagonals are nonpositive at every level and every L_j has positive
    row sums (an M-matrix).
    log_norms[j] is ln ||L_j||_inf: step j shrinks no state's largest |entry|
    by more than that factor (evolve_rescaled).
    active is None, or the (M+1, n) hard-wall mask prepare() was given: step
    j then zeroes the state outside active[j+1] before it solves.
    _kernel_slot holds kernel.kernel_matrix's last evolved identity.
    """

    spec: ProblemSpec
    lam: float
    rows: tuple = field(repr=False)  # M entries: a repr would print every row
    positivity: bool
    peclet_ok: bool
    log_norms: tuple = field(repr=False)
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


#: dgtsv's C signature, (n, nrhs, dl, d, du, b, ldb, info), with double as d
DGTSV_SIGNATURE = "void (int *, int *, d *, d *, d *, d *, int *, int *)"


def _bind_dgtsv():
    """LAPACK dgtsv, from the capsule scipy.linalg.cython_lapack exports, as a
    ctypes function, which releases the GIL for every call.

    The capsule is named by its C signature; any other signature than
    DGTSV_SIGNATURE fails the import.  The function declares no argument
    types, which ctypes would convert on every call (about 1 us a step,
    enough to make a lone vector step slower than through scipy's own
    wrapper): only _dgtsv_args builds its arguments, once per evolution,
    from buffers it has checked."""
    capsule = cython_lapack.__pyx_capi__["dgtsv"]
    # own function objects, so ctypes.pythonapi's shared ones keep their types
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    name = get_name(capsule)
    signature = re.sub(r"\b(?:__pyx_t_\w*_d|double)\b", "d", name.decode())
    if signature != DGTSV_SIGNATURE:
        raise ImportError(f"scipy.linalg.cython_lapack exports dgtsv as {name.decode()!r}, "
                          f"not as {DGTSV_SIGNATURE!r}")
    dgtsv = ctypes.CFUNCTYPE(None)(get_pointer(capsule, name))
    dgtsv.argtypes = None
    return dgtsv


_dgtsv = _bind_dgtsv()


def _dgtsv_args(bands: np.ndarray, b: np.ndarray):
    """dgtsv's arguments for solving in place in b's memory, with the rows
    (3n - 2 numbers, see StepFactorization) in bands, and its info.

    b must be a contiguous vector of n numbers, or a block of n rows whose
    rows are contiguous and whose columns start ldb >= n numbers apart, as
    every column block of a Fortran-ordered buffer with n or more rows is;
    anything else raises InvariantError, as dgtsv would read and write past
    its columns.  The arguments point into bands and b, which must outlive
    their use."""
    n = b.shape[0]
    ldb = n if b.ndim == 1 else b.strides[1] // 8
    if not (b.dtype == np.float64 and b.flags.writeable and b.strides[0] == 8
            and (b.ndim == 1 or (b.strides[1] % 8 == 0 and ldb >= n))) \
            or bands.shape != (3 * n - 2,):
        raise InvariantError(f"dgtsv needs a contiguous vector or a block with ldb >= {n}, "
                             f"got shape {b.shape}, strides {b.strides}, dtype {b.dtype}")
    at = bands.ctypes.data
    size, nrhs, info = ctypes.c_int(n), ctypes.c_int(1 if b.ndim == 1 else b.shape[1]), ctypes.c_int()
    args = (ctypes.byref(size), ctypes.byref(nrhs), ctypes.c_void_p(at),
            ctypes.c_void_p(at + 8 * (n - 1)), ctypes.c_void_p(at + 8 * (2 * n - 1)),
            ctypes.c_void_p(b.ctypes.data), ctypes.byref(ctypes.c_int(ldb)), ctypes.byref(info))
    return args, info


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
    """How many distinct step matrices prepare(spec, lam) builds and
    certifies: the runs that levels 1..M span."""
    runs = level_runs(spec)
    return int(runs[-1] - runs[1]) + 1


def prepare(spec: ProblemSpec, lam: float, active: np.ndarray | None = None) -> StepFactorization:
    """Assemble and certify all step matrices for one penalty value.

    active, an (M+1, n) bool array whose row j marks the nodes allowed at
    level j, turns the steps into hard-wall steps (see StepFactorization):
    L_j keeps a coupling only between two nodes active at level j+1 and has
    an identity row at every inactive one.  The positivity certificate is
    that of the unmasked steps, which implies it for the masked ones: cutting
    a nonpositive coupling or replacing a row by an identity row keeps the
    sign pattern and the positive row sums.

    The stencil, the step matrices, their checks and the certificates are
    evaluated once per run of identical levels (level_runs).  The pivot
    certificate is one dgtsv solve per run that some step enters, on a copy
    of its rows: the elimination every later step repeats on those rows
    finds no zero pivot.
    """
    if lam < 0:
        raise InvariantError(f"penalty must be >= 0, got {lam}")
    M, dt, n = spec.tgrid.M, spec.tgrid.dt, spec.grid.n
    run = level_runs(spec, active)
    starts = np.flatnonzero(np.diff(run, prepend=-1))  # first level of each run
    levels = starts if len(starts) <= M else slice(None)
    lower, diag, upper = stencil_bands(spec, levels)  # row r belongs to run r
    w = np.ascontiguousarray(spec.weight.values[1:-1, levels].T)
    # L_j = I + dt (A + lam M) at level j+1, as dgtsv's bands;
    # steps 0..M-1 enter the runs run[1]..run[M]
    used = slice(run[1], None)
    dl = lower[used, 1:] * dt
    d = diag[used] * dt + (1.0 + dt * lam * w[used])
    du = upper[used, :-1] * dt
    if active is not None:
        act = active[levels][used]
        cut = ~(act[:, :-1] & act[:, 1:])  # nodes i, i+1 not both active
        dl[cut] = du[cut] = 0.0
        d[~act] = 1.0
    finite = np.isfinite(dl).all(1) & np.isfinite(d).all(1) & np.isfinite(du).all(1)
    bands = np.concatenate((dl, d, du), axis=1)  # row r: the rows of run r
    bands.flags.writeable = False
    work, zero = np.empty(3 * n - 2), np.zeros(n)  # both live as long as args
    args, info = _dgtsv_args(work, zero)
    for r, level in enumerate(starts[used].tolist()):
        step = max(level - 1, 0)  # the first step into this run
        if not finite[r]:
            raise SingularStep(f"non-finite step matrix at step {step}")
        work[:] = bands[r]
        _dgtsv(*args)
        if info.value > 0:
            raise SingularStep(f"factorization failed at step {step}: zero pivot {info.value}")
    per_run = tuple(bands)
    row_sums = np.abs(d)  # of |L_j|, per run
    row_sums[:, 1:] += np.abs(dl)
    row_sums[:, :-1] += np.abs(du)
    log_norm = np.log(row_sums.max(axis=1)).tolist()
    step_runs = (run[1:] - run[1]).tolist()
    rows = tuple(per_run[r] for r in step_runs)
    log_norms = tuple(log_norm[r] for r in step_runs)

    peclet = mesh_peclet_ok(spec)
    m_pattern = np.all(lower <= 0.0) and np.all(upper <= 0.0)
    dominant = np.all(1.0 + dt * (lower[used] + diag[used] + upper[used] + lam * w[used]) > 0.0)
    positivity = bool(m_pattern and dominant)
    if not peclet:
        warnings.warn("mesh-Peclet condition violated: advection too strong for this grid, "
                      "sign pattern and positivity are not certified", stacklevel=2)
    elif not positivity:
        warnings.warn("positivity not certified: a step matrix is not an M-matrix with "
                      "positive row sums; the period map may have negative entries", stacklevel=2)
    return StepFactorization(spec, float(lam), rows, positivity, peclet, log_norms, active)


def _check_state(F: StepFactorization, v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.ndim not in (1, 2) or v.shape[0] != F.n:
        raise DimensionMismatch(f"state has shape {v.shape}, expected ({F.n},) or ({F.n}, k)")
    return v


def _stepper(F: StepFactorization, b: np.ndarray):
    """The step function of one evolution of b in place, b a buffer the
    caller owns (see _dgtsv_args).  step(j) zeroes b's rows outside
    active[j+1] when F has a mask, copies the rows of L_j into this
    evolution's own bands and solves L_j x = b in b's memory by dgtsv.  No
    info is read: prepare solved with the same rows and found no zero pivot.
    """
    bands = np.empty(3 * F.n - 2)
    args, _ = _dgtsv_args(bands, b)
    rows, active = F.rows, F.active

    def step(j):
        if active is not None:
            b[~active[j + 1]] = 0.0
        bands[:] = rows[j]
        _dgtsv(*args)
    return step


#: a rescaled evolution multiplies a state whose largest |entry| falls below
#: this by a power of two.  2^-300 leaves 722 binades above the subnormals for
#: a state's small entries, and the squares that power iteration's norms take
#: of a map this small stay normal (at 2^-600 they underflow to 0).
RESCALE_BELOW = 2.0 ** -300
_LOG_RESCALE_BELOW = math.log(RESCALE_BELOW)
_TINY = float(np.finfo(float).tiny)  # the smallest normal float64
LN2 = math.log(2.0)


def _steps(F: StepFactorization, b: np.ndarray, from_level: int, to_level: int, rescale: bool):
    """Step b in place (see _stepper) from from_level to to_level, yielding
    sigma at the start and after each step: b then holds 2^sigma times the
    state at that level.

    sigma stays 0 unless rescale is set and F has no mask.  Then b's largest
    |entry| m is read at the start and whenever the sum of log_norms since
    the last reading exceeds ln(m / RESCALE_BELOW); a reading below
    RESCALE_BELOW multiplies b by the power of two that brings m into
    [1/2, 1) and adds its exponent to sigma.
    """
    step = _stepper(F, b)
    log_norms, sigma = F.log_norms, 0

    def reading():
        # ln(m / RESCALE_BELOW) after rescaling, inf for a zero state
        nonlocal sigma
        m = float(np.max(np.abs(b), initial=0.0))
        if 0.0 < m < RESCALE_BELOW:
            e = -math.frexp(m)[1]
            np.ldexp(b, e, out=b)
            sigma += e
            m = math.ldexp(m, e)
        return math.log(m) - _LOG_RESCALE_BELOW if m > 0.0 else math.inf

    room = reading() if rescale and F.active is None else math.inf
    yield sigma
    for j in range(from_level, to_level):
        step(j)
        room -= log_norms[j]
        if room < 0.0:
            room = reading()
        yield sigma


def _rebase(blocks: list, sigmas: list) -> int:
    """Bring column blocks, block b holding 2^sigmas[b] times its states, to
    one exponent sigma, in place, and return it.

    sigma is 0 when the largest |entry| of the plain states is at least
    RESCALE_BELOW; otherwise it brings that entry into [1/2, 1).  It depends
    only on the states, not on how the columns were cut into blocks or when a
    block was rescaled, so the rebased buffer has the same bits either way.
    A column that was nonzero and falls below the normal range is counted,
    and a warning gives the count.
    """
    peaks = [np.max(np.abs(block), axis=0, initial=0.0) for block in blocks]  # per column
    # the largest plain |entry| is f * 2^top, f in [1/2, 1)
    top = max((math.frexp(float(p.max()))[1] - s for p, s in zip(peaks, sigmas) if p.any()),
              default=0)
    sigma = 0 if math.ldexp(1.0, top) > RESCALE_BELOW else -top
    lost = 0
    for block, peak, s in zip(blocks, peaks, sigmas):
        if s != sigma:
            np.ldexp(block, sigma - s, out=block)
            lost += int(np.count_nonzero((peak > 0.0) & (np.ldexp(peak, sigma - s) < _TINY)))
    if lost:
        warnings.warn(f"{lost} column(s) of the evolved state fell below the normal float range "
                      f"when rescaled to one exponent (2^{sigma}); they carry less precision",
                      stacklevel=4)
    return sigma


# Two 32-column blocks take 0.64-0.68 of the serial time of a du_peng period
# map (n = 64) on an idle 2-CPU host; narrower blocks hand the GIL over more
# often for the solve work between hand-offs.
BLOCK_MIN_COLUMNS = 32


def column_workers() -> int:
    """Most column blocks one evolution runs at once: the usable CPUs."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


def _evolve(F: StepFactorization, v: np.ndarray, from_level: int, to_level: int,
            rescale: bool) -> tuple:
    """(state, sigma) of evolve_state and evolve_rescaled."""
    if from_level > to_level:
        raise LevelOrder(f"need from_level <= to_level, got {from_level} > {to_level}")
    if not (0 <= from_level and to_level <= F.M):
        raise LevelOrder(f"levels {from_level}..{to_level} outside 0..{F.M}")
    v = _check_state(F, v)
    if v.ndim == 1 or F.n % 2:
        w = buffer = np.array(v, order="F")
    else:  # step in rows 0..n-1 of an (n + 1)-row buffer, the padding row untouched
        buffer = np.empty((F.n + 1, v.shape[1]), order="F")
        w = buffer[:F.n]
        w[...] = v

    def run(b):
        for sigma in _steps(F, b, from_level, to_level, rescale):
            pass
        return sigma

    k = 1
    if w.ndim == 2 and to_level > from_level:
        k = min(column_workers(), w.shape[1] // BLOCK_MIN_COLUMNS)
    if k <= 1:
        blocks = [w]
        sigmas = [run(w)]
    else:
        cuts = [w.shape[1] * b // k for b in range(k + 1)]
        blocks = [w[:, a:b] for a, b in zip(cuts[:-1], cuts[1:])]
        # the calling thread steps the first block, the pool the others
        with ThreadPoolExecutor(k - 1, thread_name_prefix="perevo-columns") as pool:
            futures = [pool.submit(run, block) for block in blocks[1:]]
            sigmas = [run(blocks[0])] + [fut.result() for fut in futures]
    sigma = _rebase(blocks, sigmas) if any(sigmas) else 0
    return (w if w is buffer else np.array(w, order="F")), sigma


def evolve_state(F: StepFactorization, v: np.ndarray, from_level: int, to_level: int) -> np.ndarray:
    """Discrete evolution map applied to v (a vector, or a matrix of columns).

    v is copied once into a Fortran-ordered buffer, which every step
    overwrites; v itself is never written.  A matrix of an even number n of
    rows steps in the first n rows of an (n + 1)-row buffer and is copied
    out at the end; any other state's buffer is returned.  A matrix of at
    least 2 * BLOCK_MIN_COLUMNS columns steps as contiguous column blocks of
    that buffer, one per usable CPU at most, each on its own thread of a
    pool that lives as long as the evolution.  Anything else steps on the
    calling thread.
    """
    return _evolve(F, v, from_level, to_level, False)[0]


def evolve_rescaled(F: StepFactorization, v: np.ndarray, from_level: int,
                    to_level: int) -> tuple:
    """(w, sigma): the evolution of evolve_state, kept inside the range of
    float64 as w = 2^sigma times the evolved state, sigma an int.

    Each column block rescales on its own (see _steps) and the blocks are
    then rebased to one exponent (_rebase): sigma is 0, and w the plain
    state bit for bit, unless the plain state's largest |entry| lies below
    RESCALE_BELOW.  A hard-wall F (with a mask) is never rescaled.
    """
    return _evolve(F, v, from_level, to_level, True)


def _trajectory(F: StepFactorization, u0: np.ndarray, forcing: ForcingField | None,
                rescale: bool) -> tuple:
    """(states, sigmas) of mild_solution and rescaled_trajectory."""
    w = _check_state(F, u0)
    if w.ndim != 1:
        raise DimensionMismatch("a trajectory starts from a single state vector")
    f = None if forcing is None else forcing.values[1:-1]
    dt = F.tgrid.dt
    states = np.empty((F.M + 1, F.n))
    b = np.array(w)
    steps = _steps(F, b, 0, F.M, rescale)
    sigmas = [next(steps)]
    states[0] = b
    for j in range(F.M):
        if f is not None:
            b += dt * f[:, j + 1]
        sigmas.append(next(steps))
        states[j + 1] = b
    return states, sigmas


def mild_solution(F: StepFactorization, u0: np.ndarray,
                  forcing: ForcingField | None = None) -> np.ndarray:
    """Solve the forced problem forward from u0 at level 0 over one period.

    Returns the states u^0..u^M as the rows of an (M+1, n) array, row j at
    level j.  They equal the homogeneous evolution plus the discrete
    variation-of-constants sum of the per-step solves.  One copy of u0 is
    stepped in place (step j first adds dt f^{j+1}) and copied into row j + 1.
    The forced recurrence is affine, so it is never rescaled.
    """
    return _trajectory(F, u0, forcing, False)[0]


def rescaled_trajectory(F: StepFactorization, w: np.ndarray) -> tuple:
    """(states, sigmas): the unforced mild_solution from w, rescaled as in
    evolve_rescaled; row j of states is 2^sigmas[j] times the state at level j.
    """
    return _trajectory(F, w, None, True)


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


def energy_report(F: StepFactorization, states: np.ndarray, forcing: ForcingField | None,
                  gamma: float) -> EnergyReport:
    """Trapezoidal surrogate of the weighted energy balance over the states
    (rows u^0..u^J, as mild_solution returns them).

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
    J = states.shape[0] - 1
    tJ = J * dt
    levels = np.arange(J + 1)
    wq = np.full(levels.shape, dt)
    wq[0] *= 0.5
    wq[-1] *= 0.5
    amp = np.exp(2.0 * gamma * (tJ - levels * dt))

    uT = states[-1]
    lhs = 0.5 * h * float(uT @ uT)
    alpha = spec.coeff.alpha
    vnorms = np.array([discrete_v_norm_sq(spec, u) for u in states])
    lhs += 0.25 * alpha * float(np.sum(wq * amp * vnorms))
    if F.lam > 0:
        m = spec.weight.values[1:-1]
        pen = np.array([h * float(np.sum(m[:, j] * u ** 2)) for j, u in enumerate(states)])
        lhs += F.lam * float(np.sum(wq * amp * pen))

    u0 = states[0]
    rhs = 0.5 * math.exp(2.0 * gamma * tJ) * h * float(u0 @ u0)
    if forcing is not None:
        fn = np.array([h * float(np.sum(forcing.values[1:-1, j] ** 2)) for j in levels])
        rhs += float(np.sum(wq * amp * fn)) / alpha

    ratio = lhs / rhs if rhs > 0 else 0.0
    return EnergyReport(lhs, rhs, float(gamma), ratio)


def trajectory_rows(states: np.ndarray, spec: ProblemSpec):
    """Yield (t, x, u) rows over interior nodes in long format, from states
    stacked as rows, row j at level j."""
    xs = spec.grid.interior()
    dt = spec.tgrid.dt
    for j, state in enumerate(states):
        for x, u in zip(xs, state):
            yield j * dt, x, u
