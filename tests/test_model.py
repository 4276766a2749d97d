import inspect
import math

import numpy as np
import pytest

import perevo
from perevo.cli import main
from perevo.errors import BadScenarioParams, InvariantError, SchemaError

HALF_THETA = """
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
    doc = tmp_path / "half.cfg"
    doc.write_text(HALF_THETA)
    with pytest.raises(SchemaError, match="theta"):
        perevo.build_problem(str(doc))
    assert perevo.build_problem(HALF_THETA.replace("theta = 0.5", "theta = 1.0")).grid.n == 8
    assert main(["eigen", "--config", str(doc), "--out", str(tmp_path / "o")]) == 2
    assert "theta" in capsys.readouterr().err


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
