"""Penalty sweeps, the hard-wall limit oracle, and convergence diagnostics.

A sweep runs the spectral solver over an ascending list of penalties and
records, per penalty, the eigenvalue, the eigenfunction mass sitting on the
strongly penalized region, and (when available) distances to an independent
limit construction, per level in the h-weighted l2 norm.

The limit oracle poses the lambda -> infinity problem on the weight's own
vanishing set, cylindrical or not: the solution may live only on the nodes
where the weight sample lies below its support threshold.  The oracle is the
penalized stepper of evolve.prepare at zero penalty, given that free set as
its active-node mask: a node outside it gets an identity row and a zero
right-hand side, and no coupling crosses into it, so every step evolves the
active nodes with hard Dirichlet walls at the first penalized node on each
side.  This is exactly the entrywise limit of the penalized steps as the
penalty grows, so the penalized period maps dominate the oracle entrywise and
the eigenvalues approach the oracle value from below.

The oracle and the sweep step through the same stepper and read the same
weight samples.  What keeps the oracle an independent check is its spectrum,
which comes from a dense eigendecomposition instead of power iteration; the
tests add a dense reference (tests/oracles.py) that builds the hard-wall
period map from restricted dense solves on raw slab declarations, sharing no
code with the stepper.  Declared slabs can also be handed to limit_monodromy,
which then checks their half-open membership against the free set node for
node and raises on the first disagreement.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .admissibility import build_mask
from .errors import (InsufficientData, InvariantError, NoConvergence, SingularStep,
                     TrivialLimitComparison)
from .evolve import StepFactorization, prepare
from .model import ProblemSpec
from .spectral import monodromy, periodic_eigenfunction, periodic_samples, spectral_radius

__all__ = [
    "SweepRecord",
    "LimitMonodromy",
    "ConvergenceReport",
    "VanishingRate",
    "sweep",
    "limit_monodromy",
    "compare_to_limit",
    "vanishing_rate",
    "du_peng_pieces",
    "MONOTONE_SLACK",
]

MONOTONE_SLACK = 1e-10  # allowed rounding slack in the monotone eigenvalue check


@dataclass
class SweepRecord:
    """One row of a penalty sweep.

    s_eps_mass is the squared space-time mass of the unit-normalized periodic
    eigenfunction on the region where the weight reaches eps (NaN when that
    region is empty or no eigenfunction exists).  The period map and the
    normalized eigenfunction samples are kept for later comparisons; they are
    not part of the serialized row.  As in spectral.SpectralResult, monodromy,
    r and residual hold 2^sigma times the period map's own (sigma is 0 unless
    the map lies below evolve.RESCALE_BELOW).
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
    sigma: int = 0


@dataclass
class LimitMonodromy:
    """Hard-wall period map, its spectral data, and the stepper that built it.

    F is the hard-wall StepFactorization: zero penalty, stepped with the
    weight's free set as the active-node mask.  mu_inf is +inf when every
    eigenvalue of the period map is zero (no eigenpair).
    """

    Pinf: np.ndarray
    r_inf: float
    mu_inf: float
    w_inf: np.ndarray | None
    spec: ProblemSpec
    F: StepFactorization = field(repr=False)
    _samples: np.ndarray | None = field(repr=False, default=None)

    def eigenfunction_samples(self) -> np.ndarray:
        """Periodic eigenfunction of the limit problem, one row per level.

        The samples are built once, by limit_monodromy; every call returns
        the same read-only array.
        """
        if self._samples is None:
            raise TrivialLimitComparison()
        return self._samples


def _check_pieces(spec: ProblemSpec, active: np.ndarray, pieces) -> None:
    """Raise InvariantError unless the raw (t0, t1, region) slabs mark exactly
    the active nodes.

    Level j takes the first slab whose half-open [t0, t1) holds its reduced
    time; region is "all", "empty", or (lo, hi) subintervals, each half-open
    in x.  These are the weight sampler's conventions, so slabs that trace
    the weight's free set agree with it node for node.
    """
    xs, ts = spec.grid.interior(), spec.tgrid.reduced_levels()
    declared = np.zeros_like(active)
    covered = np.zeros(ts.size, dtype=bool)
    for t0, t1, region in pieces:
        rows = (t0 <= ts) & (ts < t1) & ~covered
        covered |= rows
        if region in ("all", "empty"):
            declared[rows] = region == "all"
            continue
        for lo, hi in region:
            declared[rows] |= (lo <= xs) & (xs < hi)
    if not covered.all():
        j = int(np.argmin(covered))
        raise InvariantError(f"no declared slab covers level {j} (t = {ts[j]:g})")
    bad = np.argwhere(declared != active)
    if bad.size:
        j, i = bad[0]
        raise InvariantError(
            f"declared slabs disagree with the weight's free set at node {i + 1} "
            f"(x = {xs[i]:g}), level {j} (t = {ts[j]:g}): the slabs call it "
            f"{'free' if declared[j, i] else 'blocked'}")


def limit_monodromy(spec: ProblemSpec, pieces=None) -> LimitMonodromy:
    """Build the hard-wall period map on the weight's free set.

    Level j's active nodes are the interior nodes whose weight sample lies
    below the support threshold (admissibility.build_mask).  pieces, raw
    (t0, t1, region) slabs, are optional and only cross-checked against that
    set (see _check_pieces).  The spectral radius comes from a dense
    eigendecomposition, an algorithm independent of the sweep's power
    iteration.  A period map whose eigenvalues are all zero, the zero map
    or a nilpotent one, has no eigenpair.
    """
    active = np.ascontiguousarray(build_mask(spec.weight, spec.grid, spec.tgrid).free[1:-1].T)
    if pieces is not None:
        _check_pieces(spec, active, pieces)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        F = prepare(spec, 0.0, active)
    _rewarn("oracle", caught)
    Pinf = monodromy(F).P  # a hard-wall map is never rescaled
    eigvals, eigvecs = np.linalg.eig(Pinf)
    k = int(np.argmax(np.abs(eigvals)))
    r_inf = float(np.abs(eigvals[k]))
    if r_inf == 0.0:
        return LimitMonodromy(Pinf, 0.0, math.inf, None, spec, F)
    w = np.real(eigvecs[:, k])
    if w.sum() < 0:
        w = -w
    h = spec.grid.h
    w = w / math.sqrt(h * float(w @ w))
    mu_inf = -math.log(r_inf) / spec.tgrid.T
    samples = periodic_samples(F, w, mu_inf)
    samples.flags.writeable = False
    return LimitMonodromy(Pinf, r_inf, mu_inf, w, spec, F, samples)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def _rewarn(label: str, caught) -> None:
    """Re-issue recorded warnings, in order, as "label: message", from the
    caller of the function that calls this."""
    for w in caught:
        warnings.warn(f"{label}: {w.message}", w.category, stacklevel=3)


def _trap_weights(M: int, dt: float) -> np.ndarray:
    w = np.full(M + 1, dt)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _spacetime_normalize(samples: np.ndarray, h: float, wt: np.ndarray) -> np.ndarray:
    total = float(np.sum(wt * h * np.sum(samples ** 2, axis=1)))
    return samples / math.sqrt(total)


def _row_l2_norms(X: np.ndarray, h: float) -> np.ndarray:
    """h-weighted l2 norm of every row of a matrix.

    The row sums reduce the contiguous last axis of a C-ordered array, which
    numpy sums pairwise row by row exactly as a 1-D np.sum would (a
    Fortran-ordered matrix would be summed column by column instead).  The
    square root stays a float64 scalar power: np.sqrt can differ from it in
    the last bit.
    """
    sums = h * np.sum(np.abs(np.ascontiguousarray(X)) ** 2.0, axis=1)
    return np.array([s ** 0.5 for s in sums])


def _aligned_units(X: np.ndarray, h: float) -> np.ndarray:
    """Rows scaled to unit h-weighted l2 norm (zero rows kept), each signed so
    that its largest-magnitude entry is positive."""
    nrm = _row_l2_norms(X, h)
    U = X / np.where(nrm == 0, 1.0, nrm)[:, None]
    rows = np.arange(U.shape[0])
    peak = U[rows, np.abs(U).argmax(axis=1)]
    return np.where((peak < 0)[:, None], -U, U)


def _eig_distances(samples_a: np.ndarray, samples_b: np.ndarray, h: float) -> np.ndarray:
    return _row_l2_norms(_aligned_units(samples_a, h) - _aligned_units(samples_b, h), h)


def sweep(spec: ProblemSpec, lambdas, eps: float, oracle: LimitMonodromy | None = None):
    """One record per penalty value, ascending; failures do not stop the sweep.

    The eigenfunction is normalized to unit space-time l2 mass before its
    share on the strongly penalized region {weight >= eps} is measured.  A
    penalty whose step matrix is singular or whose power iteration does not
    converge (spectral_radius's default rule) gives an invalid record and a
    warning; a non-converged record keeps the last r estimate and residual.
    Every warning a penalty raises, prepare's and evolve's included, is
    re-issued after it as "penalty <lam>: message".  Violations of eigenvalue
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
        P = None
        try:
            F = prepare(spec, lam)
            P = monodromy(F)
            res = spectral_radius(P)
        except (NoConvergence, SingularStep) as exc:
            warnings.warn(str(exc))
            stalled = isinstance(exc, NoConvergence)
            return SweepRecord(lam, exc.r_estimate if stalled else math.nan, math.nan,
                               exc.residual if stalled else math.nan, math.nan, math.nan,
                               False, False, sigma=0 if P is None else P.sigma)
        if res.trivial:
            return SweepRecord(lam, res.r, math.inf, res.residual, math.nan,
                               math.nan, True, True, res.iterations, P.P, None, P.sigma)
        eig = periodic_eigenfunction(F, res)
        u = _spacetime_normalize(eig.samples, h, wt)
        mass = math.nan
        if seps_nonempty:
            mass = float(np.sum(wt[None, :] * h * (u.T ** 2) * seps))
        dist = math.nan
        if oracle_samples is not None:
            dist = float(_eig_distances(u, oracle_samples, h).max())
        return SweepRecord(lam, res.r, res.mu, res.residual, mass, dist,
                           False, True, res.iterations, P.P, u, P.sigma)

    records = []
    for lam in lambdas:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            records.append(one(lam))
        _rewarn(f"penalty {lam:g}", caught)

    finite = [r for r in records if r.valid]
    for r1, r2 in zip(finite, finite[1:]):
        if r2.mu < r1.mu - MONOTONE_SLACK:
            warnings.warn(f"eigenvalue not monotone: mu({r2.lam:g}) = {r2.mu:.12g} "
                          f"< mu({r1.lam:g}) = {r1.mu:.12g}", stacklevel=2)
    return records


@dataclass(frozen=True)
class ConvergenceReport:
    """Gaps between the top-of-sweep eigenpair and the hard-wall limit."""

    lambda_max: float
    mu_gap: float
    op_gap_max: float
    eig_dists: np.ndarray
    eig_dist_max: float


def compare_to_limit(records, lim: LimitMonodromy) -> ConvergenceReport:
    """Compare the largest-penalty record against the limit oracle.

    Raises TrivialLimitComparison (carrying the max-entry decay of the
    penalized period maps) when the oracle is the zero matrix.  Both read
    the penalized maps on the plain scale, where a map below the range of
    float64 reads as zeros.
    """
    usable = [r for r in records if r.valid]
    if not usable:
        raise InsufficientData("no valid sweep records to compare")
    if not math.isfinite(lim.mu_inf):
        decay = [(r.lam, math.ldexp(float(np.abs(r.monodromy).max()), -r.sigma))
                 for r in usable if r.monodromy is not None]
        raise TrivialLimitComparison(decay)
    rec = usable[-1]
    if rec.trivial or rec.eigenfunction is None:
        raise InsufficientData(f"top record (penalty {rec.lam:g}) has no eigenfunction")
    mu_gap = abs(rec.mu - lim.mu_inf)
    op_gap = float(np.abs(np.ldexp(rec.monodromy, -rec.sigma) - lim.Pinf).max())
    h = lim.spec.grid.h
    oracle_samples = lim.eigenfunction_samples()
    dists = _eig_distances(rec.eigenfunction, oracle_samples, h)
    return ConvergenceReport(rec.lam, mu_gap, op_gap, dists, float(dists.max()))


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
# the du_peng slabs, a cross-check input for limit_monodromy
# ---------------------------------------------------------------------------

def du_peng_pieces(spec: ProblemSpec, u_lo: float = 0.0, u_hi: float = 0.5,
                   t_switch: float = 0.5) -> list:
    """Two raw slabs: the whole interval before the switch, the subinterval after."""
    return [(0.0, t_switch, "all"), (t_switch, spec.tgrid.T, ((u_lo, u_hi),))]
