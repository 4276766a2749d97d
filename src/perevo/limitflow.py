"""Penalty sweeps, the hard-wall limit oracle, and convergence diagnostics.

A sweep runs the spectral solver over an ascending list of penalties and
records, per penalty, the eigenvalue, the eigenfunction mass sitting on the
strongly penalized region, and (when available) distances to an independent
limit construction.

The limit oracle applies to piecewise-cylindrical vanishing regions: the
period is partitioned into slabs, each carrying the set of subintervals on
which the solution is allowed to live.  The oracle is the penalized stepper of
evolve.prepare at zero penalty, given the slabs' active-node mask: a node
outside the region gets an identity row and a zero right-hand side, and no
coupling crosses into it, so every step evolves the active nodes with hard
Dirichlet walls at the first penalized node on each side.  This is exactly
the entrywise limit of the penalized steps as the penalty grows, so the
penalized period maps dominate the oracle entrywise and the eigenvalues
approach the oracle value from below.

Two things keep the oracle an independent check of the sweep although both
step through the same factors: its spectrum comes from a dense
eigendecomposition instead of power iteration, and its mask comes from the
slab partition instead of the weight samples.  Slab membership is evaluated
half-open in time at the step's target level (reduced modulo the period) and
half-open [lo, hi) in space, the same conventions the weight sampler uses,
which keeps the two routes consistent node for node.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (InsufficientData, InvariantError, MisalignedPiece, NoConvergence,
                     SingularStep, TrivialLimitComparison)
from .evolve import StepFactorization, evolve_state, prepare
from .model import ProblemSpec, staircase_geometry
from .spectral import monodromy, periodic_eigenfunction, periodic_samples, spectral_radius

__all__ = [
    "SweepRecord",
    "CylindricalPieceSpec",
    "LimitMonodromy",
    "ConvergenceReport",
    "VanishingRate",
    "sweep",
    "limit_monodromy",
    "compare_to_limit",
    "vanishing_rate",
    "du_peng_pieces",
    "counterexample_pieces",
    "MONOTONE_SLACK",
    "ZERO_ORACLE_TOL",
    "DIVERGENCE_THRESHOLD",
]

MONOTONE_SLACK = 1e-10       # allowed rounding slack in the monotone eigenvalue check
ZERO_ORACLE_TOL = 1e-14      # max-entry threshold for declaring the oracle trivial
DIVERGENCE_THRESHOLD = 0.5   # eigenvalue growth per decade that flags divergence


@dataclass
class SweepRecord:
    """One row of a penalty sweep.

    s_eps_mass is the squared space-time mass of the unit-normalized periodic
    eigenfunction on the region where the weight reaches eps (NaN when that
    region is empty or no eigenfunction exists).  The period map and the
    normalized eigenfunction samples are kept for later comparisons; they are
    not part of the serialized row.
    """

    lam: float
    r: float
    mu: float
    residual: float
    s_eps_mass: float
    dist_to_limit_L2: float
    trivial: bool
    valid: bool
    iterations: int = 0
    monodromy: np.ndarray | None = field(default=None, repr=False)
    eigenfunction: np.ndarray | None = field(default=None, repr=False)


@dataclass(frozen=True)
class CylindricalPieceSpec:
    """Slab partition of one period with the active region per slab.

    pieces is a tuple of (t_start, t_end, region); region is "all", "empty",
    or a tuple of (lo, hi) subintervals.  The slabs must tile [0, T] in
    order.  Membership of a node x in an interval is half-open: lo <= x < hi.
    """

    pieces: tuple
    T: float

    def __post_init__(self):
        if not self.pieces:
            raise InvariantError("need at least one slab")
        tol = 1e-9 * self.T
        if abs(self.pieces[0][0]) > tol:
            raise InvariantError("first slab must start at t = 0")
        if abs(self.pieces[-1][1] - self.T) > tol:
            raise InvariantError("last slab must end at t = T")
        for (s0, e0, _), (s1, _, _) in zip(self.pieces, self.pieces[1:]):
            if abs(e0 - s1) > tol:
                raise InvariantError(f"slabs not contiguous at t = {e0}")
        for s0, e0, region in self.pieces:
            if not s0 < e0:
                raise InvariantError(f"empty slab [{s0}, {e0}]")
            if region not in ("all", "empty"):
                for lo, hi in region:
                    if not lo < hi:
                        raise InvariantError(f"bad subinterval ({lo}, {hi})")

    def slab_index(self, t: float) -> int:
        starts = [p[0] for p in self.pieces]
        k = int(np.searchsorted(starts, t, side="right")) - 1
        return min(max(k, 0), len(self.pieces) - 1)


def _misaligned_walls(spec: ProblemSpec, pieces: CylindricalPieceSpec) -> list:
    """Interior wall positions strictly between grid nodes, each once, in order."""
    g = spec.grid
    walls = []
    for _, _, region in pieces.pieces:
        if region in ("all", "empty"):
            continue
        for lo, hi in region:
            for v in (lo, hi):
                off = (v - g.x_lo) / g.h
                if g.x_lo < v < g.x_hi and abs(off - round(off)) > 1e-9 and v not in walls:
                    walls.append(v)
    return walls


@dataclass
class LimitMonodromy:
    """Hard-wall period map, its spectral data, and the stepper that built it.

    F is the hard-wall StepFactorization: zero penalty, stepped with the
    active-node mask of the slab partition.  mu_inf is +inf when the period
    map is the zero matrix (no eigenpair).
    """

    Pinf: np.ndarray
    r_inf: float
    mu_inf: float
    w_inf: np.ndarray | None
    pieces: CylindricalPieceSpec
    spec: ProblemSpec
    F: StepFactorization = field(repr=False)
    _samples: np.ndarray | None = field(repr=False, default=None)

    def evolve(self, v: np.ndarray, from_level: int, to_level: int) -> np.ndarray:
        """Hard-wall evolution between two levels (vector or matrix of columns)."""
        return evolve_state(self.F, v, from_level, to_level)

    def eigenfunction_samples(self) -> np.ndarray:
        """Periodic eigenfunction of the limit problem, one row per level.

        The samples are built once, by limit_monodromy; every call returns
        the same read-only array.
        """
        if self._samples is None:
            raise TrivialLimitComparison()
        return self._samples


def _active_mask(spec: ProblemSpec, pieces: CylindricalPieceSpec) -> np.ndarray:
    """(M+1, n) bool: row j marks the interior nodes in the region of the slab
    holding level j's reduced time."""
    xs = spec.grid.interior()
    per_slab = np.zeros((len(pieces.pieces), xs.size), dtype=bool)
    for k, (_, _, region) in enumerate(pieces.pieces):
        if region in ("all", "empty"):
            per_slab[k] = region == "all"
            continue
        for lo, hi in region:
            per_slab[k] |= (lo <= xs) & (xs < hi)
    M, dt = spec.tgrid.M, spec.tgrid.dt
    return per_slab[[pieces.slab_index((j % M) * dt) for j in range(M + 1)]]


def limit_monodromy(spec: ProblemSpec, pieces, strict: bool = False) -> LimitMonodromy:
    """Build the hard-wall period map for a declared slab partition.

    pieces may be a CylindricalPieceSpec or a raw list of (t0, t1, region)
    triples.  The spectral radius comes from a dense eigendecomposition, an
    algorithm independent of the sweep's power iteration.
    """
    if not isinstance(pieces, CylindricalPieceSpec):
        pieces = CylindricalPieceSpec(tuple(
            (float(t0), float(t1), region if region in ("all", "empty") else tuple(
                (float(lo), float(hi)) for lo, hi in region))
            for t0, t1, region in pieces), spec.tgrid.T)
    for v in _misaligned_walls(spec, pieces):
        msg = (f"wall position {v} sits between grid nodes; the effective wall "
               f"is the first node at or beyond it")
        if strict:
            raise MisalignedPiece(msg)
        warnings.warn(msg, stacklevel=2)
    if spec.theta != 1.0:
        warnings.warn("hard-wall oracle with theta < 1: the restricted steps use the "
                      "same theta but entrywise dominance is only certified for theta = 1",
                      stacklevel=2)
    F = prepare(spec, 0.0, _active_mask(spec, pieces))
    Pinf = monodromy(F).P
    if float(np.abs(Pinf).max()) <= ZERO_ORACLE_TOL:
        return LimitMonodromy(Pinf, 0.0, math.inf, None, pieces, spec, F)
    eigvals, eigvecs = np.linalg.eig(Pinf)
    k = int(np.argmax(np.abs(eigvals)))
    r_inf = float(np.abs(eigvals[k]))
    w = np.real(eigvecs[:, k])
    if w.sum() < 0:
        w = -w
    h = spec.grid.h
    w = w / math.sqrt(h * float(w @ w))
    mu_inf = -math.log(r_inf) / spec.tgrid.T
    samples = periodic_samples(F, w, mu_inf)
    samples.flags.writeable = False
    return LimitMonodromy(Pinf, r_inf, mu_inf, w, pieces, spec, F, samples)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def _trap_weights(M: int, dt: float) -> np.ndarray:
    w = np.full(M + 1, dt)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _spacetime_normalize(samples: np.ndarray, h: float, wt: np.ndarray) -> np.ndarray:
    total = float(np.sum(wt * h * np.sum(samples ** 2, axis=1)))
    return samples / math.sqrt(total)


def _row_lq_norms(X: np.ndarray, h: float, q: float) -> np.ndarray:
    """Discrete l^q norm of every row of a matrix.

    The row sums reduce the contiguous last axis of a C-ordered array, which
    numpy sums pairwise row by row exactly as a 1-D np.sum would (a
    Fortran-ordered matrix would be summed column by column instead).  The
    q-th root stays a float64 scalar power: the array power takes other paths
    (sqrt for q = 2, SIMD pow) that can differ in the last bit.
    """
    if math.isinf(q):
        return np.abs(X).max(axis=1)
    sums = h * np.sum(np.abs(np.ascontiguousarray(X)) ** q, axis=1)
    return np.array([s ** (1.0 / q) for s in sums])


def _aligned_units(X: np.ndarray, h: float, q: float) -> np.ndarray:
    """Rows scaled to unit l^q norm (zero rows kept), each signed so that its
    largest-magnitude entry is positive."""
    nrm = _row_lq_norms(X, h, q)
    U = X / np.where(nrm == 0, 1.0, nrm)[:, None]
    rows = np.arange(U.shape[0])
    peak = U[rows, np.abs(U).argmax(axis=1)]
    return np.where((peak < 0)[:, None], -U, U)


def _eig_distances(samples_a: np.ndarray, samples_b: np.ndarray, h: float,
                   q: float) -> np.ndarray:
    return _row_lq_norms(_aligned_units(samples_a, h, q) - _aligned_units(samples_b, h, q), h, q)


def sweep(spec: ProblemSpec, lambdas, eps: float, tol: float = 1e-10,
          max_iter: int = 20000, oracle: LimitMonodromy | None = None):
    """One record per penalty value, ascending; failures do not stop the sweep.

    The eigenfunction is normalized to unit space-time l2 mass before its
    share on the strongly penalized region {weight >= eps} is measured.  A
    penalty whose step matrix is singular or whose power iteration does not
    converge gives an invalid record and a warning; a non-converged record
    keeps the last r estimate and residual.  Violations of eigenvalue
    monotonicity beyond rounding slack are reported as warnings.
    """
    lambdas = [float(v) for v in lambdas]
    if any(l2 < l1 for l1, l2 in zip(lambdas, lambdas[1:])):
        raise InvariantError("penalty list must be ascending")
    if lambdas and lambdas[0] < 0:
        raise InvariantError("penalties must be >= 0")
    if not eps > 0:
        raise InvariantError("eps must be positive")

    h, M, dt = spec.grid.h, spec.tgrid.M, spec.tgrid.dt
    wt = _trap_weights(M, dt)
    seps = spec.weight.values[1:-1, :] >= eps  # interior nodes x levels
    seps_nonempty = bool(seps.any())

    oracle_samples = None
    if oracle is not None and math.isfinite(oracle.mu_inf):
        oracle_samples = oracle.eigenfunction_samples()

    def one(lam: float) -> SweepRecord:
        try:
            F = prepare(spec, lam)
            P = monodromy(F)
            res = spectral_radius(P, tol=tol, max_iter=max_iter)
        except (NoConvergence, SingularStep) as exc:
            warnings.warn(f"penalty {lam:g}: {exc}", stacklevel=3)
            stalled = isinstance(exc, NoConvergence)
            return SweepRecord(lam, exc.r_estimate if stalled else math.nan, math.nan,
                               exc.residual if stalled else math.nan, math.nan, math.nan,
                               False, False)
        if res.trivial:
            return SweepRecord(lam, res.r, math.inf, res.residual, math.nan,
                               math.nan, True, True, res.iterations, P.P, None)
        eig = periodic_eigenfunction(F, res)
        u = _spacetime_normalize(eig.samples, h, wt)
        mass = math.nan
        if seps_nonempty:
            mass = float(np.sum(wt[None, :] * h * (u.T ** 2) * seps))
        dist = math.nan
        if oracle_samples is not None:
            dist = float(_eig_distances(u, oracle_samples, h, 2.0).max())
        return SweepRecord(lam, res.r, res.mu, res.residual, mass, dist,
                           False, True, res.iterations, P.P, u)

    records = [one(lam) for lam in lambdas]

    finite = [r for r in records if r.valid]
    for r1, r2 in zip(finite, finite[1:]):
        if r2.mu < r1.mu - MONOTONE_SLACK:
            warnings.warn(f"eigenvalue not monotone: mu({r2.lam:g}) = {r2.mu:.12g} "
                          f"< mu({r1.lam:g}) = {r1.mu:.12g}", stacklevel=2)
    return records


def classify_divergent(records) -> bool:
    """Heuristic divergence flag for a sweep without a finite limit value.

    Divergent when the top of the sweep is already numerically nilpotent, or
    the eigenvalue still grows by more than the threshold over the last
    decade of penalties.
    """
    valid = [r for r in records if r.valid]
    if not valid:
        return False
    if any(r.trivial for r in valid):
        return True
    last = valid[-1]
    if last.lam <= 0:
        return False
    target = last.lam / 10.0
    prev = min((r for r in valid[:-1] if r.lam > 0),
               key=lambda r: abs(math.log(r.lam / target)) if r.lam > 0 else math.inf,
               default=None)
    if prev is None:
        return False
    decades = math.log10(last.lam / prev.lam) if prev.lam > 0 else 1.0
    if decades <= 0:
        return False
    return (last.mu - prev.mu) / decades > DIVERGENCE_THRESHOLD


@dataclass(frozen=True)
class ConvergenceReport:
    """Gaps between the top-of-sweep eigenpair and the hard-wall limit."""

    lambda_max: float
    mu_gap: float
    op_gap_max: float
    eig_dists: np.ndarray
    eig_dist_max: float
    q: float


def compare_to_limit(records, lim: LimitMonodromy, q: float = 2.0) -> ConvergenceReport:
    """Compare the largest-penalty record against the limit oracle.

    Raises TrivialLimitComparison (carrying the max-entry decay of the
    penalized period maps) when the oracle is the zero matrix.
    """
    usable = [r for r in records if r.valid]
    if not usable:
        raise InsufficientData("no valid sweep records to compare")
    if not math.isfinite(lim.mu_inf):
        decay = [(r.lam, float(np.abs(r.monodromy).max()))
                 for r in usable if r.monodromy is not None]
        raise TrivialLimitComparison(decay)
    rec = usable[-1]
    if rec.trivial or rec.eigenfunction is None:
        raise InsufficientData(f"top record (penalty {rec.lam:g}) has no eigenfunction")
    mu_gap = abs(rec.mu - lim.mu_inf)
    op_gap = float(np.abs(rec.monodromy - lim.Pinf).max())
    h = lim.spec.grid.h
    oracle_samples = lim.eigenfunction_samples()
    dists = _eig_distances(rec.eigenfunction, oracle_samples, h, q)
    return ConvergenceReport(rec.lam, mu_gap, op_gap, dists, float(dists.max()), q)


@dataclass(frozen=True)
class VanishingRate:
    """Fitted log-log slope of the penalized-region mass against the penalty."""

    slope: float | None
    status: str  # "ok" | "not_applicable" | "assumption_violated"
    n_used: int


def vanishing_rate(records, mask=None) -> VanishingRate:
    """Least-squares slope of log(mass on the penalized region) vs log(penalty).

    Needs at least three valid records with penalty >= 10.  When the weight
    has empty support the mass is undefined and the result is
    "not_applicable"; when the weight is positive everywhere (no vanishing
    region at all) the slope is meaningless and flagged
    "assumption_violated".
    """
    usable = [r for r in records
              if r.valid and not r.trivial and r.lam >= 10.0
              and math.isfinite(r.s_eps_mass) and r.s_eps_mass > 0]
    candidates = [r for r in records if r.valid and not r.trivial and r.lam >= 10.0]
    if candidates and all(math.isnan(r.s_eps_mass) for r in candidates):
        return VanishingRate(None, "not_applicable", 0)
    if len(usable) < 3:
        raise InsufficientData(f"need >= 3 usable records with penalty >= 10, got {len(usable)}")
    lams = np.array([r.lam for r in usable])
    masses = np.array([r.s_eps_mass for r in usable])
    slope = float(np.polyfit(np.log(lams), np.log(masses), 1)[0])
    status = "ok"
    if mask is not None and not bool(mask.free.any()):
        status = "assumption_violated"
    return VanishingRate(slope, status, len(usable))


# ---------------------------------------------------------------------------
# canned slab partitions matching the builtin scenarios
# ---------------------------------------------------------------------------

def du_peng_pieces(spec: ProblemSpec, u_lo: float = 0.0, u_hi: float = 0.5,
                   t_switch: float = 0.5) -> CylindricalPieceSpec:
    """Two slabs: the whole interval before the switch, the subinterval after."""
    T = spec.tgrid.T
    return CylindricalPieceSpec((
        (0.0, t_switch, "all"),
        (t_switch, T, ((u_lo, u_hi),)),
    ), T)


def counterexample_pieces(spec: ProblemSpec, xs=None, ts=None) -> CylindricalPieceSpec:
    """Seven slabs tracing the free region of the staircase weight."""
    xs, ts = staircase_geometry(spec.grid, spec.tgrid, xs, ts)
    x0, x1, x2, x3, x4, x5 = xs
    t0, t1, t2, t3, t4, t5 = ts
    T = spec.tgrid.T
    return CylindricalPieceSpec((
        (0.0, t0, "all"),
        (t0, t1, ((x0, x1),)),
        (t1, t2, ((x0, x1), (x2, x5))),
        (t2, t3, ((x0, x1), (x2, x3), (x4, x5))),
        (t3, t4, ((x0, x3), (x4, x5))),
        (t4, t5, ((x4, x5),)),
        (t5, T, "all"),
    ), T)
