import inspect
import math
import tracemalloc

import numpy as np
import pytest

import oracles
import perevo
from perevo.admissibility import build_mask, mask_text
from perevo.cli import main
from perevo.errors import BadScenarioParams, InvariantError, SchemaError
from perevo.evolve import level_runs, prepare
from perevo.spectral import monodromy

SCHEME_DOC = """
[grid]
x_lo = 0.0
x_hi = 1.0
n = 8

[time]
T = 1.0
M = 8

[coefficients]
D = 1.0

[boundary]
bc = dirichlet

[scheme]
theta = 0.5
"""


def test_grid_nodes_and_spacing():
    g = perevo.Grid1D(0.0, 1.0, 3)
    assert g.h == 0.25
    assert np.allclose(g.nodes(), [0.0, 0.25, 0.5, 0.75, 1.0])
    assert np.allclose(g.interior(), [0.25, 0.5, 0.75])


@pytest.mark.parametrize("args", [(1.0, 0.0, 4), (0.0, 1.0, 1)])
def test_grid_invariants(args):
    with pytest.raises(InvariantError):
        perevo.Grid1D(*args)


def test_timegrid():
    t = perevo.TimeGrid(2.0, 4)
    assert t.dt == 0.5
    assert np.allclose(t.levels(), [0.0, 0.5, 1.0, 1.5, 2.0])
    # level M wraps back to t = 0
    assert t.reduced_levels()[-1] == 0.0
    with pytest.raises(InvariantError):
        perevo.TimeGrid(0.0, 4)
    with pytest.raises(InvariantError):
        perevo.TimeGrid(1.0, 1)


def test_canonical_heat_problem_builds():
    spec = perevo.builtin_scenario("heat_baseline", x_lo=0.0, x_hi=1.0, n=64, M=256)
    assert spec.coeff.D.shape == (66, 257)
    assert spec.weight.values.max() == 0.0


def test_periodic_sampling_exact():
    grid = perevo.Grid1D(0.0, 1.0, 8)
    tgrid = perevo.TimeGrid(0.7, 10)

    def f(x, t):
        return 1.0 + 0.5 * np.sin(2 * math.pi * t / 0.7) + 0.1 * x

    lat = perevo.model.sample_field(f, grid, tgrid)
    # column M equals column 0 exactly: the reduction is by level index
    assert np.array_equal(lat[:, -1], lat[:, 0])
    # sampling one period later reproduces the lattice bit for bit
    red = tgrid.reduced_levels()
    lat2 = f(grid.nodes()[:, None], (red + 0.7 * 0)[None, :])
    assert np.array_equal(lat, np.broadcast_to(lat2, lat.shape))


def test_sin_t_time_dependent_diffusion():
    grid = perevo.Grid1D(0.0, 1.0, 8)
    tgrid = perevo.TimeGrid(1.0, 16)
    coeff = perevo.make_coefficients(
        grid, tgrid, D=lambda x, t: 1.0 + 0.5 * np.sin(2 * math.pi * t) + 0.0 * x)
    assert np.array_equal(coeff.D[:, -1], coeff.D[:, 0])
    assert coeff.alpha == pytest.approx(float(coeff.D.min()))


def test_negative_weight_rejected_with_location():
    grid = perevo.Grid1D(0.0, 1.0, 4)
    tgrid = perevo.TimeGrid(1.0, 4)
    with pytest.raises(InvariantError) as err:
        perevo.make_weight(grid, tgrid, lambda x, t: np.where((x == 0.4) & (t == 0.5),
                                                              -0.1, 0.0))
    assert "x=0.4" in str(err.value) and "t=0.5" in str(err.value)


@pytest.mark.parametrize("build, value, text", [
    (lambda g, t, v: perevo.make_coefficients(g, t, D=v), -1.0,
     "ellipticity floor must be positive; D attains -1 at"),
    (lambda g, t, v: perevo.make_coefficients(g, t, D=v, alpha=2.0), 1.0,
     "D sample 1 below alpha=2 at"),
    (lambda g, t, v: perevo.make_coefficients(g, t, D=1.0, a=v), np.nan,
     "coefficient a is not finite at"),
    (lambda g, t, v: perevo.make_coefficients(g, t, D=1.0, c0=v), -np.inf,
     "coefficient c0 is not finite at"),
    (lambda g, t, v: perevo.make_weight(g, t, v), -0.5, "weight sample -0.5 is negative at"),
    (lambda g, t, v: perevo.make_weight(g, t, v), np.inf, "weight is not finite at"),
])
def test_a_bad_constant_is_reported_as_its_full_lattice_is(build, value, text):
    # a constant is checked through its one value; the text, location
    # included, is the one its materialized lattice gives
    grid, tgrid = perevo.Grid1D(0.0, 1.0, 4), perevo.TimeGrid(1.0, 4)
    messages = []
    for v in (value, np.full((6, 5), value)):
        with pytest.raises(InvariantError) as err:
            build(grid, tgrid, v)
        messages.append(str(err.value))
    assert messages[0] == messages[1] == f"{text} (x=0, t=0) [node 0, level 0]"


def test_nonelliptic_diffusion_rejected():
    grid = perevo.Grid1D(0.0, 1.0, 4)
    tgrid = perevo.TimeGrid(1.0, 4)
    with pytest.raises(InvariantError):
        perevo.make_coefficients(grid, tgrid, D=lambda x, t: x - 0.5 + 0.0 * t)
    with pytest.raises(InvariantError):
        perevo.make_coefficients(grid, tgrid, D=1.0, alpha=2.0)


def test_sup_norms_and_coercivity_shift():
    grid = perevo.Grid1D(0.0, 1.0, 4)
    tgrid = perevo.TimeGrid(1.0, 4)
    c = perevo.make_coefficients(grid, tgrid, 1.0)
    assert perevo.sample_sup_norms(c) == (0.0, 0.0, 0.0)
    assert perevo.coercivity_shift(c) == 0.0

    c2 = perevo.make_coefficients(grid, tgrid, 1.0, c0=-3.0)
    assert perevo.sample_sup_norms(c2) == (0.0, 0.0, 3.0)
    assert perevo.coercivity_shift(c2) == 3.0

    c3 = perevo.make_coefficients(grid, tgrid, 1.0, a=2.0, c0=1.0, alpha=0.5)
    assert perevo.sample_sup_norms(c3) == (2.0, 0.0, 0.0)
    assert perevo.coercivity_shift(c3) == pytest.approx(2.0)


def test_sup_norms_match_the_abs_formulas_bit_for_bit():
    # min and max give the bits np.abs(x).max() and np.maximum(-c0, 0).max()
    # give, signed zeros and broadcasts included
    rng = np.random.default_rng(22)
    grid, tgrid = perevo.Grid1D(0.0, 1.0, 5), perevo.TimeGrid(1.0, 6)
    shape = (grid.n + 2, tgrid.M + 1)

    def lattice():
        kind = rng.integers(4)
        if kind == 0:
            return rng.choice([0.0, -0.0, 1.5, -2.5])  # stored as a broadcast
        if kind == 1:
            return rng.choice([0.0, -0.0], size=shape)
        x = rng.standard_normal(shape)
        return -np.abs(x) if kind == 2 else x

    for _ in range(300):
        c = perevo.make_coefficients(grid, tgrid, 1.0, a=lattice(), b=lattice(), c0=lattice())
        got = perevo.sample_sup_norms(c)
        want = (float(np.abs(c.a).max()), float(np.abs(c.b).max()),
                float(np.maximum(-c.c0, 0.0).max()))
        assert [np.float64(v).tobytes() for v in got] == [np.float64(v).tobytes() for v in want]


def test_sup_norms_allocate_no_lattice():
    # at `check counterexample --refine 4` size a lattice is 4.7 MB; the abs
    # formulas allocated 9.4 MB of temporaries here
    spec = perevo.builtin_scenario("counterexample", n=243, M=2400)
    coeff = perevo.make_coefficients(spec.grid, spec.tgrid, 1.0, a=np.full(spec.coeff.a.shape, -0.5),
                                     b=0.25, c0=np.full(spec.coeff.c0.shape, -1.0))
    tracemalloc.start()
    try:
        norms = perevo.sample_sup_norms(coeff)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert norms == (0.5, 0.25, 1.0)
    assert peak < 0.1e6


def test_coercivity_shift_nonnegative_random():
    rng = np.random.default_rng(7)
    grid = perevo.Grid1D(0.0, 1.0, 6)
    tgrid = perevo.TimeGrid(1.0, 6)
    for _ in range(20):
        a, b, c0 = rng.uniform(-2, 2, size=3)
        c = perevo.make_coefficients(grid, tgrid, 1.0, a=a, b=b, c0=c0)
        g0 = perevo.coercivity_shift(c)
        assert g0 >= 0.0
        if a == 0 and b == 0 and c0 >= 0:
            assert g0 == 0.0


def test_boundary_spec_validation():
    perevo.BoundarySpec("robin", b0_left=1.0, b0_right=2.0)
    with pytest.raises(InvariantError):
        perevo.BoundarySpec("robin", b0_left=-1.0)
    with pytest.raises(InvariantError):
        perevo.BoundarySpec("neumann", b0_left=1.0)
    with pytest.raises(InvariantError):
        perevo.BoundarySpec("mixed")
    bc = perevo.BoundarySpec("mixed", b0_right=1.0, kind_left="dirichlet", kind_right="robin")
    assert bc.side("left") == "dirichlet" and bc.side("right") == "flux"


def test_theta_range_enforced(tmp_path, capsys):
    # only the fully implicit stepper exists: every way to ask for another fails
    for name in ("heat_baseline", "du_peng"):
        with pytest.raises(TypeError, match="theta"):
            perevo.builtin_scenario(name, n=8, M=8, theta=0.5)
    assert "theta" not in inspect.signature(perevo.make_problem).parameters
    # [scheme] is no section of a document, not even with theta = 1
    for theta in ("0.5", "1.0"):
        doc = tmp_path / f"theta_{theta}.cfg"
        doc.write_text(SCHEME_DOC.replace("theta = 0.5", f"theta = {theta}"))
        with pytest.raises(SchemaError, match=r"unknown section \[scheme\]"):
            perevo.build_problem(str(doc))
        assert main(["eigen", str(doc), "--out", str(tmp_path / "o")]) == 2
        assert "unknown section [scheme]" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_du_peng_weight_layout():
    spec = perevo.builtin_scenario("du_peng", n=64, M=512)
    vals = spec.weight.values
    xs = spec.grid.nodes()
    ts = spec.tgrid.reduced_levels()
    expected = ((xs[:, None] >= 0.5) & (ts[None, :] >= 0.5)).astype(float)
    assert np.array_equal(vals, expected)
    # column at t = T wraps to the t = 0 values
    assert not vals[:, -1].any()


def test_heat_baseline_weight_zero():
    spec = perevo.builtin_scenario("heat_baseline", n=16, M=16)
    assert not spec.weight.values.any()


def test_counterexample_geometry_snaps_to_grid():
    spec = perevo.builtin_scenario("counterexample")
    assert spec.grid.n == 60 and spec.tgrid.M == 600
    xs, ts = perevo.model.staircase_geometry(spec.grid, spec.tgrid)
    h = spec.grid.h
    for x in xs:
        off = (x - spec.grid.x_lo) / h
        assert abs(off - round(off)) < 1e-9
    for t in ts:
        off = t / spec.tgrid.dt
        assert abs(off - round(off)) < 1e-9
    assert all(a < b for a, b in zip(xs, xs[1:]))
    assert all(a < b for a, b in zip(ts, ts[1:]))


def test_bad_scenario_params():
    with pytest.raises(BadScenarioParams):
        perevo.builtin_scenario("du_peng", u_lo=0.7, u_hi=0.3)
    with pytest.raises(BadScenarioParams):
        perevo.builtin_scenario("counterexample", n=20, M=60,
                                xs=(0.0, 0.4, 0.2, 0.6, 0.8, 1.0))
    with pytest.raises(BadScenarioParams):
        perevo.builtin_scenario("nope")


def test_separable_scenario():
    grid, tgrid = perevo.Grid1D(0.0, 1.0, 15), perevo.TimeGrid(1.0, 16)
    vals = perevo.model.box_weight(grid, tgrid, 0.25, 0.75, 0.5, 1.0)
    xs = grid.nodes()
    ts = tgrid.reduced_levels()
    expected = ((xs[:, None] >= 0.25) & (xs[:, None] < 0.75)
                & (ts[None, :] >= 0.5)).astype(float)
    assert np.array_equal(vals, expected)


def test_digest_deterministic_and_sensitive():
    a = perevo.builtin_scenario("heat_baseline", n=16, M=16)
    b = perevo.builtin_scenario("heat_baseline", n=16, M=16)
    c = perevo.builtin_scenario("heat_baseline", n=16, M=16, D=2.0)
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()


# pinned sha256 digests of the builtins at their default lattices: a drift in
# any lattice bit or scalar of a builtin changes them
@pytest.mark.parametrize("name, digest", [
    ("heat_baseline", "c8e81111810a9ac1f7d04b63b32098dd4f781d0dbe8008930fc79cfc1b9a191f"),
    ("du_peng", "9829a714a45a6858638011ee73f84b9bd93bfaabc7f046d4bc6825ef3f7620f1"),
    ("counterexample", "f23236f59f1add9bc34bf9fa847661f4be0236b39f70b88bb7a18ae69ecc08c8"),
])
def test_builtin_digests_at_default_lattice(name, digest):
    assert perevo.builtin_scenario(name).digest() == digest


# the refined lattices `perevo check --refine` builds: du_peng at K = 2 and
# counterexample at K = 4
@pytest.mark.parametrize("name, n, M, digest", [
    ("du_peng", 129, 1024, "f29b3be81bd068f095d0a636fc5d90b4a6c4e8fadd43b3a3f544555d23bcf3bb"),
    ("counterexample", 243, 2400, "0987fb353773072a8641b274af1566d2e6b15095a7c5ffb0bfc8e7ea09e260ad"),
])
def test_builtin_digests_at_refined_lattices(name, n, M, digest):
    assert perevo.builtin_scenario(name, n=n, M=M).digest() == digest


def _layouts(shape, rng):
    """One lattice of each memory layout a ProblemSpec may hold."""
    base = rng.uniform(0.5, 2.0, shape)
    return [
        base,                                        # C-ordered
        np.asfortranarray(base),
        np.broadcast_to(base[0], shape),             # broadcast by row: strides (0, 8)
        np.broadcast_to(base[:, :1], shape),         # broadcast by column: strides (8, 0)
        np.broadcast_to(np.float64(1.5), shape),     # a scalar: every stride 0
        np.broadcast_to(np.float64(-0.0), shape),
    ]


# lattice sizes against DIGEST_CHUNK = 8192 samples: fewer, exactly one
# chunk, one chunk and a remainder, exactly two chunks
@pytest.mark.parametrize("n, M", [(10, 20), (62, 127), (100, 100), (126, 127)])
def test_digest_matches_a_row_by_row_reference(n, M):
    grid, tgrid = perevo.Grid1D(0.0, 1.0, n), perevo.TimeGrid(1.0, M)
    lattices = _layouts((n + 2, M + 1), np.random.default_rng(n))
    assert perevo.model.DIGEST_CHUNK == 8192
    # every layout takes every place: D, a, b, c0 and the weight
    for k in range(len(lattices)):
        D, a, b, c0, m = (lattices[(k + i) % len(lattices)] for i in range(5))
        spec = perevo.ProblemSpec(grid, tgrid, perevo.CoefficientField(D, a, b, c0, 0.5),
                                  perevo.BoundarySpec("dirichlet"), perevo.WeightField(m, 1e-15))
        assert spec.digest() == oracles.row_digest(spec)


_SHARED = np.full((6, 5), 0.5)  # a module-level lattice at n = 4, M = 4


def test_a_callers_lattice_is_copied_and_a_builders_is_kept():
    grid, tgrid = perevo.Grid1D(0.0, 1.0, 4), perevo.TimeGrid(1.0, 4)
    lattices = (perevo.make_weight(grid, tgrid, lambda x, t: _SHARED).values,
                perevo.model.sample_field(lambda x, t: _SHARED, grid, tgrid),
                perevo.make_weight(grid, tgrid, _SHARED).values)
    try:
        _SHARED[2, 3] = 7.0
        for lattice in lattices:
            assert not np.shares_memory(lattice, _SHARED) and np.all(lattice == 0.5)
    finally:
        _SHARED[2, 3] = 0.5
    built = perevo.model.du_peng_weight(grid, tgrid)
    assert perevo.make_weight(grid, tgrid, built).values is not built
    kept = perevo.model._make_weight(grid, tgrid, built, None, copy=False).values
    assert kept is built and not kept.flags.writeable
    # a lattice that is not C-ordered is still copied into C order
    for layout in (np.asfortranarray(built), np.broadcast_to(built[0], built.shape)):
        kept = perevo.model._make_weight(grid, tgrid, layout, None, copy=False).values
        assert kept.flags.c_contiguous and not np.shares_memory(kept, layout)


CONSTANTS_DOC = """
[grid]
x_lo = 0.0
x_hi = 1.0
n = 24

[time]
T = 1.0
M = 40

[coefficients]
D = sin_t(1.0, 0.25)
a = const(0.5)
c0 = 2

[boundary]
bc = robin
b0_left = 0.5
b0_right = 1.0

[weight]
weight = indicator_box(0.2, 0.6, 0.25, 0.75)
"""


def _with_full_arrays(spec, D, a, b, c0, m):
    """spec's problem rebuilt from the given lattices, each an explicit
    (n+2, M+1) array: a number v stands for np.full(shape, v)."""
    g, t = spec.grid, spec.tgrid

    def lattice(v):
        return np.full((g.n + 2, t.M + 1), v) if np.ndim(v) == 0 else np.array(v)

    coeff = perevo.make_coefficients(g, t, lattice(D), lattice(a), lattice(b), lattice(c0))
    return perevo.make_problem(g, t, coeff, spec.bc, perevo.make_weight(g, t, lattice(m)))


def _equivalent_pairs():
    heat = perevo.builtin_scenario("heat_baseline")
    yield heat, _with_full_arrays(heat, 1.0, 0.0, 0.0, 0.0, 0.0), 5
    for name in ("du_peng", "counterexample"):
        spec = perevo.builtin_scenario(name)
        yield spec, _with_full_arrays(spec, 1.0, 0.0, 0.0, 0.0, spec.weight.values), 4
    doc = perevo.build_problem(CONSTANTS_DOC)  # b is omitted: the constant 0
    yield doc, _with_full_arrays(doc, doc.coeff.D, 0.5, 0.0, 2.0, doc.weight.values), 3


def test_constant_lattices_are_broadcasts_that_compute_like_full_arrays():
    for spec, full, constants in _equivalent_pairs():
        lattices = (spec.coeff.D, spec.coeff.a, spec.coeff.b, spec.coeff.c0, spec.weight.values)
        assert sum(not any(arr.strides) for arr in lattices) == constants
        assert not any(arr.flags.writeable for arr in lattices)
        assert spec.digest() == full.digest()
        assert np.array_equal(level_runs(spec), level_runs(full))
        F, G = prepare(spec, 10.0), prepare(full, 10.0)
        assert len(F.rows) == len(G.rows)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(F.rows, G.rows))
        assert monodromy(F).P.tobytes() == monodromy(G).P.tobytes()
        assert mask_text(build_mask(spec.weight, spec.grid, spec.tgrid)) == \
            mask_text(build_mask(full.weight, full.grid, full.tgrid))


def test_a_broadcast_argument_is_stored_as_one_value():
    grid, tgrid = perevo.Grid1D(0.0, 1.0, 6), perevo.TimeGrid(1.0, 8)
    mine = np.array(2.0)
    coeff = perevo.make_coefficients(grid, tgrid, np.broadcast_to(mine, (8, 9)), c0=-0.0)
    mine[...] = 3.0  # the lattice keeps the value it was given
    assert coeff.D.strides == (0, 0) and np.all(coeff.D == 2.0)
    assert np.signbit(coeff.c0).all()
    with pytest.raises(InvariantError, match="shape"):
        perevo.make_coefficients(grid, tgrid, np.broadcast_to(1.0, (8, 8)))


def test_counterexample_at_refine_4_builds_in_bounded_memory():
    # n = 243, M = 2400 is `check counterexample --refine 4`; one lattice is
    # 4.7 MB.  Measured with tracemalloc: 5.3 MB peak and 4.7 MB kept with
    # the constants stored as broadcasts and the weight builder's np.where
    # lattice kept, not copied (10.0 MB peak with one copy of it).  The peak
    # bound leaves room for numpy's temporaries inside np.where and
    # broadcast_to, which differ between numpy versions, and still fails
    # with that copy
    perevo.builtin_scenario("counterexample", n=20, M=40)
    tracemalloc.start()
    try:
        spec = perevo.builtin_scenario("counterexample", n=243, M=2400)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert spec.coeff.D.shape == (245, 2401)
    assert peak < 7e6 and kept < 5e6


def test_builtin_rejects_a_keyword_it_does_not_take():
    with pytest.raises(TypeError):
        perevo.builtin_scenario("heat_baseline", n=8, M=8, u_lo=0.1)
    with pytest.raises(TypeError):
        perevo.builtin_scenario("du_peng", n=8, M=8, sx_lo=0.1)


def test_lattices_are_immutable():
    spec = perevo.builtin_scenario("heat_baseline", n=8, M=8)
    with pytest.raises(ValueError):
        spec.coeff.D[0, 0] = 5.0
    with pytest.raises(ValueError):
        spec.weight.values[0, 0] = 1.0
