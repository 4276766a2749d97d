"""Problem definitions: grids, periodic coefficient fields, weights, boundary data.

Everything downstream consumes the immutable :class:`ProblemSpec` built here.
The continuous problem on an interval (x_lo, x_hi) over one time period T is

    du/dt - (D(x,t) u' + a(x,t) u)' + b(x,t) u' + c0(x,t) u + lam * m(x,t) u = 0,

with Dirichlet or flux (Neumann/Robin) conditions at the two endpoints and a
nonnegative weight m that vanishes on part of the space-time cylinder.

Coefficients are sampled pointwise on the (n+2) x (M+1) space-time lattice;
there is no quadrature of rough data.  Discontinuous indicator data is sampled
half-open: the stored value at a jump is the value just to the right in x and
just after in t.  Time is reduced modulo the period through the level index,
so samples at t and t + T agree bit for bit.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadScenarioParams, InvariantError

__all__ = [
    "Grid1D",
    "TimeGrid",
    "CoefficientField",
    "BoundarySpec",
    "WeightField",
    "ProblemSpec",
    "sample_field",
    "make_coefficients",
    "make_weight",
    "make_problem",
    "sample_sup_norms",
    "coercivity_shift",
    "builtin_scenario",
    "SCENARIO_NAMES",
    "du_peng_weight",
    "box_weight",
    "staircase_weight",
    "snap_to_node",
    "snap_to_level",
]

#: default relative support threshold and its absolute floor
SUPPORT_THRESHOLD_REL = 1e-12
SUPPORT_THRESHOLD_FLOOR = 1e-15


@dataclass(frozen=True)
class Grid1D:
    """Uniform spatial grid with n interior nodes on (x_lo, x_hi).

    Node i (0..n+1) sits at x_lo + i*h with h = (x_hi - x_lo)/(n+1).
    Nodes 0 and n+1 are the endpoints; they are never unknowns under
    Dirichlet conditions.
    """

    x_lo: float
    x_hi: float
    n: int

    def __post_init__(self):
        if not self.x_lo < self.x_hi:
            raise InvariantError(f"grid needs x_lo < x_hi, got [{self.x_lo}, {self.x_hi}]")
        if self.n < 2:
            raise InvariantError(f"grid needs n >= 2 interior nodes, got n={self.n}")

    @property
    def h(self) -> float:
        return (self.x_hi - self.x_lo) / (self.n + 1)

    def nodes(self) -> np.ndarray:
        """All n+2 node coordinates, endpoints included."""
        return self.x_lo + self.h * np.arange(self.n + 2)

    def interior(self) -> np.ndarray:
        """Coordinates of the n interior nodes."""
        return self.nodes()[1:-1]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time levels t_j = j*dt over one period, j = 0..M, dt = T/M."""

    T: float
    M: int

    def __post_init__(self):
        if not self.T > 0:
            raise InvariantError(f"period must be positive, got T={self.T}")
        if self.M < 2:
            raise InvariantError(f"need M >= 2 time steps per period, got M={self.M}")

    @property
    def dt(self) -> float:
        return self.T / self.M

    def levels(self) -> np.ndarray:
        return self.dt * np.arange(self.M + 1)

    def reduced_levels(self) -> np.ndarray:
        """Level times reduced modulo the period: level M maps back to t=0."""
        return self.dt * (np.arange(self.M + 1) % self.M)


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=float)
    out.flags.writeable = False
    return out


def sample_field(fn, grid: Grid1D, tgrid: TimeGrid) -> np.ndarray:
    """Sample fn(x, t) on the full lattice with t reduced modulo the period.

    fn must broadcast over numpy arrays; the result has shape (n+2, M+1).
    """
    x = grid.nodes()[:, None]
    t = tgrid.reduced_levels()[None, :]
    out = np.broadcast_to(np.asarray(fn(x, t), dtype=float), (grid.n + 2, tgrid.M + 1))
    return np.array(out, dtype=float)


def _locate(arr: np.ndarray, grid: Grid1D, tgrid: TimeGrid, idx) -> str:
    i, j = idx
    x = grid.nodes()[i]
    t = tgrid.levels()[j]
    return f"(x={x:.6g}, t={t:.6g}) [node {i}, level {j}]"


@dataclass(frozen=True)
class CoefficientField:
    """Lattice samples of the four coefficients plus the ellipticity floor.

    All arrays have shape (n+2, M+1): rows are nodes including endpoints,
    columns are time levels 0..M with column M equal to column 0 by periodic
    reduction.  ``alpha`` is a certified lower bound for every D sample.
    """

    D: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c0: np.ndarray
    alpha: float


def _materialize(f, grid, tgrid) -> np.ndarray:
    shape = (grid.n + 2, tgrid.M + 1)
    if callable(f):
        return sample_field(f, grid, tgrid)
    arr = np.asarray(f, dtype=float)
    if arr.ndim == 0:
        return np.full(shape, float(arr))
    if arr.shape != shape:
        raise InvariantError(f"sample lattice has shape {arr.shape}, expected {shape}")
    return arr.copy()


def make_coefficients(grid, tgrid, D, a=0.0, b=0.0, c0=0.0, alpha=None) -> CoefficientField:
    """Materialize coefficient lattices from callables, constants, or arrays.

    If alpha is omitted it is set to the smallest D sample.  Raises
    InvariantError when a sample is non-finite or D drops below alpha.
    """
    def mat(f):
        return _materialize(f, grid, tgrid)

    Dl, al, bl, cl = mat(D), mat(a), mat(b), mat(c0)
    for name, arr in (("D", Dl), ("a", al), ("b", bl), ("c0", cl)):
        if not np.all(np.isfinite(arr)):
            idx = np.unravel_index(int(np.argmin(np.isfinite(arr))), arr.shape)
            raise InvariantError(f"coefficient {name} is not finite at {_locate(arr, grid, tgrid, idx)}")
    dmin_idx = np.unravel_index(int(np.argmin(Dl)), Dl.shape)
    dmin = float(Dl[dmin_idx])
    if alpha is None:
        alpha = dmin
    if not alpha > 0:
        raise InvariantError(
            f"ellipticity floor must be positive; D attains {dmin:.6g} at "
            + _locate(Dl, grid, tgrid, dmin_idx)
        )
    if dmin < alpha:
        raise InvariantError(
            f"D sample {dmin:.6g} below alpha={alpha:.6g} at " + _locate(Dl, grid, tgrid, dmin_idx)
        )
    return CoefficientField(_freeze(Dl), _freeze(al), _freeze(bl), _freeze(cl), float(alpha))


_BC_KINDS = ("dirichlet", "neumann", "robin", "mixed")


@dataclass(frozen=True)
class BoundarySpec:
    """Boundary condition data for the two endpoints.

    kind "dirichlet" pins u = 0 at both ends.  "neumann"/"robin" impose the
    flux relation (D u' + a u) * nu + b0 u = 0 with outward normal nu = -1 at
    x_lo and +1 at x_hi (b0 = 0 is the natural Neumann case).  kind "mixed"
    lets the two endpoints differ; then kind_left/kind_right name each side.
    """

    kind: str
    b0_left: float = 0.0
    b0_right: float = 0.0
    kind_left: str | None = None
    kind_right: str | None = None

    def __post_init__(self):
        if self.kind not in _BC_KINDS:
            raise InvariantError(f"unknown boundary kind {self.kind!r}")
        if self.b0_left < 0 or self.b0_right < 0:
            raise InvariantError("Robin coefficients b0 must be >= 0")
        if self.kind == "neumann" and (self.b0_left != 0 or self.b0_right != 0):
            raise InvariantError("Neumann boundary requires b0 = 0 (use robin for b0 > 0)")
        if self.kind == "mixed":
            for side in (self.kind_left, self.kind_right):
                if side not in ("dirichlet", "neumann", "robin"):
                    raise InvariantError("mixed boundary needs kind_left/kind_right in dirichlet|neumann|robin")

    def side(self, which: str) -> str:
        """Resolved condition at one endpoint: 'dirichlet' or 'flux'."""
        kind = self.kind
        if kind == "mixed":
            kind = self.kind_left if which == "left" else self.kind_right
        return "dirichlet" if kind == "dirichlet" else "flux"


@dataclass(frozen=True)
class WeightField:
    """Nonnegative penalty weight samples plus the support-detection cutoff.

    A lattice sample below ``delta`` counts as zero; at or above it the cell
    belongs to the (discrete) support of the weight.
    """

    values: np.ndarray
    delta: float


def make_weight(grid, tgrid, m=0.0, delta=None) -> WeightField:
    vals = _materialize(m, grid, tgrid)
    if not np.all(np.isfinite(vals)):
        idx = np.unravel_index(int(np.argmin(np.isfinite(vals))), vals.shape)
        raise InvariantError(f"weight is not finite at {_locate(vals, grid, tgrid, idx)}")
    mn_idx = np.unravel_index(int(np.argmin(vals)), vals.shape)
    if vals[mn_idx] < 0:
        raise InvariantError(
            f"weight sample {float(vals[mn_idx]):.6g} is negative at "
            + _locate(vals, grid, tgrid, mn_idx)
        )
    mx = float(vals.max()) if vals.size else 0.0
    if delta is None:
        delta = max(SUPPORT_THRESHOLD_REL * mx, SUPPORT_THRESHOLD_FLOOR)
    delta = float(delta)
    if delta <= 0:
        raise InvariantError("support threshold delta must be strictly positive")
    if mx > 0 and delta > mx:
        raise InvariantError(f"delta={delta:.6g} exceeds the largest weight sample {mx:.6g}")
    return WeightField(_freeze(vals), delta)


@dataclass(frozen=True)
class ProblemSpec:
    """Full immutable description of one discretized problem, stepped fully
    implicitly in time (see evolve).  Safe to share across workers."""

    grid: Grid1D
    tgrid: TimeGrid
    coeff: CoefficientField
    bc: BoundarySpec
    weight: WeightField

    def __post_init__(self):
        shape = (self.grid.n + 2, self.tgrid.M + 1)
        for name in ("D", "a", "b", "c0"):
            if getattr(self.coeff, name).shape != shape:
                raise InvariantError(f"coefficient {name} lattice has wrong shape")
        if self.weight.values.shape != shape:
            raise InvariantError("weight lattice has wrong shape")

    def digest(self) -> str:
        """Stable hash of every lattice and scalar that defines the problem.

        The field after M is the literal 1.0, the time stepper's theta when
        theta was a parameter; it stays so that digests keep their values."""
        hsh = hashlib.sha256()
        head = (
            f"{self.grid.x_lo!r},{self.grid.x_hi!r},{self.grid.n},"
            f"{self.tgrid.T!r},{self.tgrid.M},1.0,"
            f"{self.bc.kind},{self.bc.b0_left!r},{self.bc.b0_right!r},"
            f"{self.bc.kind_left},{self.bc.kind_right},{self.weight.delta!r},"
            f"{self.coeff.alpha!r}"
        )
        hsh.update(head.encode())
        for arr in (self.coeff.D, self.coeff.a, self.coeff.b, self.coeff.c0, self.weight.values):
            hsh.update(arr.tobytes())
        return hsh.hexdigest()


def make_problem(grid, tgrid, coeff, bc, weight) -> ProblemSpec:
    return ProblemSpec(grid, tgrid, coeff, bc, weight)


def sample_sup_norms(coeff: CoefficientField):
    """Lattice sup norms (max |a|, max |b|, max of the negative part of c0)."""
    a_sup = float(np.abs(coeff.a).max())
    b_sup = float(np.abs(coeff.b).max())
    c0_minus = float(np.maximum(-coeff.c0, 0.0).max())
    return a_sup, b_sup, c0_minus


def coercivity_shift(coeff: CoefficientField) -> float:
    """Smallest shift gamma0 >= 0 used by the energy inequality.

    gamma0 = (max|a| + max|b|) / (2 alpha) + max(c0^-); it vanishes exactly
    when a = b = 0 and c0 >= 0 on the lattice.
    """
    a_sup, b_sup, c0_minus = sample_sup_norms(coeff)
    return (a_sup + b_sup) / (2.0 * coeff.alpha) + c0_minus


# ---------------------------------------------------------------------------
# builtin scenarios
# ---------------------------------------------------------------------------

def snap_to_node(grid: Grid1D, x: float) -> float:
    """Coordinate of the lattice node nearest to x (endpoints included)."""
    i = int(round((x - grid.x_lo) / grid.h))
    i = min(max(i, 0), grid.n + 1)
    return grid.x_lo + i * grid.h


def snap_to_level(tgrid: TimeGrid, t: float) -> float:
    j = int(round(t / tgrid.dt))
    j = min(max(j, 0), tgrid.M)
    return j * tgrid.dt


def du_peng_weight(grid: Grid1D, tgrid: TimeGrid, u_lo=0.0, u_hi=0.5, t_switch=0.5):
    """Weight samples that are off everywhere before t_switch, then one outside
    [u_lo, u_hi).

    The vanishing region is the full cylinder up to t_switch followed by the
    sub-cylinder over (u_lo, u_hi); mass must descend into the subinterval
    before the switch and stay there.
    """
    if not (grid.x_lo <= u_lo < u_hi <= grid.x_hi):
        raise BadScenarioParams(
            f"subinterval ({u_lo}, {u_hi}) not inside ({grid.x_lo}, {grid.x_hi})")
    if not (0.0 < t_switch < tgrid.T):
        raise BadScenarioParams(f"switch time {t_switch} not inside (0, {tgrid.T})")
    return sample_field(
        lambda x, t: np.where((t >= t_switch) & ~((u_lo <= x) & (x < u_hi)), 1.0, 0.0),
        grid, tgrid)


def box_weight(grid: Grid1D, tgrid: TimeGrid, x1, x2, t1, t2):
    """Indicator samples of the box [x1, x2) x [t1, t2)."""
    if not x1 < x2:
        raise BadScenarioParams(f"box needs x1 < x2, got [{x1}, {x2})")
    if not t1 < t2:
        raise BadScenarioParams(f"box needs t1 < t2, got [{t1}, {t2})")
    return sample_field(
        lambda x, t: np.where((x1 <= x) & (x < x2) & (t1 <= t) & (t < t2), 1.0, 0.0),
        grid, tgrid)


def default_staircase_abscissae(x_lo=0.0, x_hi=1.0):
    w = x_hi - x_lo
    return tuple(x_lo + k * w / 5.0 for k in range(6))


def default_staircase_times(T=1.0):
    return tuple((2 * k + 1) * T / 12.0 for k in range(6))


def staircase_geometry(grid: Grid1D, tgrid: TimeGrid, xs=None, ts=None):
    """Validate and grid-snap the six abscissae and six switch times.

    Returns (xs, ts) with xs[0] = x_lo, xs[5] = x_hi and every interior value
    moved to the nearest node/level, which keeps the weight samples and slabs
    declared at these positions in exact agreement.
    """
    xs = default_staircase_abscissae(grid.x_lo, grid.x_hi) if xs is None else tuple(xs)
    ts = default_staircase_times(tgrid.T) if ts is None else tuple(ts)
    if len(xs) != 6 or len(ts) != 6:
        raise BadScenarioParams("staircase needs six abscissae and six times")
    if not (xs[0] == grid.x_lo and xs[5] == grid.x_hi):
        raise BadScenarioParams("first/last abscissa must be the domain endpoints")
    xs = (grid.x_lo,) + tuple(snap_to_node(grid, x) for x in xs[1:5]) + (grid.x_hi,)
    ts = tuple(snap_to_level(tgrid, t) for t in ts)
    if any(xs[k] >= xs[k + 1] for k in range(5)):
        raise BadScenarioParams(f"abscissae not strictly increasing after snapping: {xs}")
    if not (0.0 < ts[0] and ts[5] < tgrid.T) or any(ts[k] >= ts[k + 1] for k in range(5)):
        raise BadScenarioParams(f"times not strictly increasing inside (0, T) after snapping: {ts}")
    return xs, ts


def staircase_blocked(xs, ts, x, t):
    """Indicator (boolean, broadcasting) of the two interlocking blocks.

    Every interval is sampled half-open [lo, hi), matching the global
    convention for indicator data.
    """
    x0, x1, x2, x3, x4, x5 = xs
    t0, t1, t2, t3, t4, t5 = ts
    blocked = (t0 <= t) & (t < t1) & (x1 <= x) & (x < x5)
    blocked |= (t1 <= t) & (t < t3) & (x1 <= x) & (x < x2)
    blocked |= (t2 <= t) & (t < t4) & (x3 <= x) & (x < x4)
    blocked |= (t4 <= t) & (t < t5) & (x0 <= x) & (x < x4)
    return blocked


def staircase_weight(grid: Grid1D, tgrid: TimeGrid, xs=None, ts=None):
    """Weight samples, one on the staircase's blocks (see staircase_geometry)."""
    xs, ts = staircase_geometry(grid, tgrid, xs, ts)
    return sample_field(lambda x, t: np.where(staircase_blocked(xs, ts, x, t), 1.0, 0.0),
                        grid, tgrid)


#: keywords every builtin takes, with the defaults the rows below override
_LATTICE = dict(x_lo=0.0, x_hi=1.0, T=1.0, n=64, M=512, D=1.0, bc="dirichlet")

#: one row per builtin: (defaults over _LATTICE, weight builder or None).
#: The remaining keywords go to the weight builder and are the builtin's
#: geometry.
_SCENARIOS = {
    "heat_baseline": (dict(x_hi=math.pi, n=128), None),
    "du_peng": ({}, du_peng_weight),
    # staircase whose vanishing region is connected only by paths that move
    # backwards in time; the hard-wall limit of the period map is zero
    "counterexample": (dict(n=60, M=600), staircase_weight),
}
SCENARIO_NAMES = tuple(_SCENARIOS)


def builtin_scenario(name: str, **params) -> ProblemSpec:
    """Build the builtin ``name`` (one of SCENARIO_NAMES) from its _SCENARIOS row.

    Every builtin takes the _LATTICE keywords (domain, period, n, M, D, bc);
    the rest override the geometry its weight builder takes.  A builtin
    without a weight builder has m = 0.
    """
    try:
        defaults, weight = _SCENARIOS[name]
    except KeyError:
        raise BadScenarioParams(
            f"unknown scenario {name!r}; expected one of {sorted(_SCENARIOS)}"
        ) from None
    kw = {**_LATTICE, **defaults, **params}
    lat = {key: kw.pop(key) for key in _LATTICE}
    grid, tgrid = Grid1D(lat["x_lo"], lat["x_hi"], lat["n"]), TimeGrid(lat["T"], lat["M"])
    if weight is None and kw:
        raise TypeError(f"{name} got unexpected keyword arguments {sorted(kw)}")
    m = 0.0 if weight is None else weight(grid, tgrid, **kw)
    coeff = make_coefficients(grid, tgrid, lat["D"])
    return make_problem(grid, tgrid, coeff, BoundarySpec(lat["bc"]), make_weight(grid, tgrid, m))
