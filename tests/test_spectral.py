import math

import numpy as np
import pytest

import oracles
import perevo
from dgtsv_hook import hook_dgtsv
from perevo import evolve
from perevo.errors import NoConvergence, TrivialLimit
from perevo.evolve import ForcingField, evolve_state, mild_solution, prepare
from perevo.model import box_weight
from perevo.spectral import (MonodromyMatrix, eigengap, monodromy, periodic_eigenfunction,
                             periodic_samples, principal_pair, spectral_radius)


def _mat(P, h=0.1, T=1.0):
    return MonodromyMatrix(np.asarray(P, dtype=float), 0.0, True, T, h)


def test_identity_period_map():
    res = spectral_radius(_mat(np.eye(6)))
    assert res.r == pytest.approx(1.0)
    assert res.mu == pytest.approx(0.0, abs=1e-12)
    assert res.residual <= 1e-12
    # returned vector is the normalized ones vector
    assert np.allclose(res.w, res.w[0])


def test_diagonal_period_map():
    P = _mat(np.diag([2.0, 1.0]), h=0.5)
    res = spectral_radius(P)
    assert res.r == pytest.approx(2.0)
    assert eigengap(P) == pytest.approx(1.0, abs=1e-6)
    assert abs(res.w[1]) <= 1e-8


def test_zero_period_map_is_trivial():
    res = spectral_radius(_mat(np.zeros((4, 4))))
    assert res.trivial and res.mu == math.inf


def test_no_convergence_raises():
    # eigenvalues +-1: power iteration oscillates forever
    P = np.array([[0.0, 2.0], [0.5, 0.0]])
    with pytest.raises(NoConvergence):
        spectral_radius(_mat(P), max_iter=100)


def test_monodromy_matches_dense_product(heat_unit):
    F = prepare(heat_unit, 0.0)
    P = monodromy(F)
    ref = oracles.dense_period_map(F)
    assert np.abs(P.P - ref).max() <= 1e-12 * np.abs(ref).max()
    assert P.positivity


def _random_problem(rng, n, M, bc=perevo.BoundarySpec("dirichlet")):
    """A seeded random problem inside the mesh-Peclet bound: D varying in x
    and t, a constant drift a, b varying in t, c0 >= 0 varying in x and t,
    and the indicator of a random box as the weight."""
    grid, tgrid = perevo.Grid1D(0.0, 1.0, n), perevo.TimeGrid(1.0, M)
    d0, d1, kx = rng.uniform(0.5, 1.5), rng.uniform(0.0, 0.4), rng.uniform(0.0, 6.0)
    drift = (d0 - d1) * (n + 1)  # times h: at most alpha, the smallest D
    a, b0, c = rng.uniform(-drift, drift), rng.uniform(-drift, drift), rng.uniform(0.0, 5.0)
    coeff = perevo.make_coefficients(
        grid, tgrid, lambda x, t: d0 + d1 * np.sin(kx * x + 2 * math.pi * t), a=a,
        b=lambda x, t: b0 * np.cos(2 * math.pi * t), c0=lambda x, t: c * (1 + np.sin(3 * x - t)))
    x1, x2, t1, t2 = (*np.sort(rng.uniform(0, 1, 2)), *np.sort(rng.uniform(0, 1, 2)))
    weight = perevo.make_weight(grid, tgrid, box_weight(grid, tgrid, x1, x2, t1, t2))
    return perevo.make_problem(grid, tgrid, coeff, bc, weight)


def _random_bc(rng, kind):
    """Boundary data of one kind; Robin ends get b0 in (0.1, 5), and mixed
    ends two different kinds among dirichlet, neumann and robin."""
    if kind != "mixed":
        b0 = rng.uniform(0.1, 5.0, 2) if kind == "robin" else (0.0, 0.0)
        return perevo.BoundarySpec(kind, *b0)
    left, right = rng.permutation(["dirichlet", "neumann", "robin"])[:2].tolist()
    b0 = [rng.uniform(0.1, 5.0) if side == "robin" else 0.0 for side in (left, right)]
    return perevo.BoundarySpec("mixed", *b0, kind_left=left, kind_right=right)


def _check_period_map(F, rng, monkeypatch, tol):
    """The map must be the dense product of the step solves to tol relative,
    the same bits serially and split, and a vector's evolution the matching
    column."""
    n, M = F.n, F.M
    ref = oracles.dense_period_map(F)
    monkeypatch.setattr(evolve, "column_workers", lambda: 1)
    serial = monodromy(F).P
    monkeypatch.setattr(evolve, "column_workers", lambda: 2)
    with monkeypatch.context() as m:
        calls = hook_dgtsv(m)
        split = monodromy(F).P
    blocks = {n} if n < 2 * evolve.BLOCK_MIN_COLUMNS else {n // 2, n - n // 2}
    assert {nrhs for nrhs, _ in calls} == blocks
    assert split.tobytes() == serial.tobytes()
    err = np.abs(serial - ref).max() / np.abs(ref).max()
    assert err <= tol, (n, M, F.lam, F.spec.bc, err)
    col = int(rng.integers(n))
    assert evolve_state(F, np.eye(n)[col], 0, M).tobytes() == serial[:, col].tobytes()


def test_period_maps_match_dense_products_on_random_problems(monkeypatch):
    # n and M in 2..39, plus n = 64 and n = 100, which step as two column
    # blocks when two workers are allowed
    rng = np.random.default_rng(1414)
    shapes = [tuple(rng.integers(2, 40, 2).tolist()) for _ in range(30)]
    shapes += [(64, int(rng.integers(2, 40))), (100, int(rng.integers(2, 40)))]
    for n, M in shapes:
        spec = _random_problem(rng, n, M)
        for lam in (0.0, 1e2, 1e4):
            F = prepare(spec, lam)
            assert F.positivity and F.peclet_ok
            _check_period_map(F, rng, monkeypatch, 1e-13)


# prepare warns on every draw whose flux end loses the positivity certificate
_FLUX_END = pytest.mark.filterwarnings("ignore:positivity not certified:UserWarning")


@pytest.mark.parametrize("kind", ["dirichlet", *(pytest.param(k, marks=_FLUX_END)
                                                 for k in ("neumann", "robin", "mixed"))])
def test_period_maps_match_dense_products_on_every_boundary_kind(kind, monkeypatch):
    # the dense step matrices write the flux-end rows from the boundary
    # relation.  A flux end with strong drift may lose the positivity
    # certificate, which this comparison does not need, and makes the step
    # matrices worse conditioned: both products then carry the forward error
    # of M solves, about M * cond(L_j) * eps (the two differed by up to 3
    # times that over 240 seeded draws)
    rng = np.random.default_rng(["dirichlet", "neumann", "robin", "mixed"].index(kind) + 2323)
    shapes = [tuple(rng.integers(2, 40, 2).tolist()) for _ in range(8)]
    shapes += [(64, int(rng.integers(2, 40)))]
    for n, M in shapes:
        spec = _random_problem(rng, n, M, _random_bc(rng, kind))
        for lam in (0.0, 1e2, 1e4):
            F = prepare(spec, lam)
            assert F.peclet_ok
            cond = max(np.linalg.cond(oracles.dense_step_matrix(spec, lam, j + 1), 1)
                       for j in range(M))
            _check_period_map(F, rng, monkeypatch, 10 * M * cond * np.finfo(float).eps)


def test_mild_solution_and_periodic_samples_on_random_problems():
    # one loop records every trajectory: forced states against one dense
    # space-time solve, and the periodic samples scaled bit for bit
    rng = np.random.default_rng(2424)
    for _ in range(6):
        n, M = (int(v) for v in rng.integers(2, 16, 2))
        spec = _random_problem(rng, n, M)
        F = prepare(spec, float(rng.choice([0.0, 1e2, 1e4])))
        forcing = ForcingField(rng.standard_normal((n + 2, M + 1)))
        u0 = rng.standard_normal(n)
        states = mild_solution(F, u0, forcing)
        ref = np.array(oracles.dense_spacetime_trajectory(F, u0, forcing.values))
        assert states.shape == (M + 1, n)
        assert np.abs(states - ref).max() <= 1e-12 * np.abs(ref).max()
        w, mu, dt = np.abs(u0), rng.uniform(-5.0, 5.0), spec.tgrid.dt
        samples = periodic_samples(F, w, mu)
        for j in range(M + 1):
            assert samples[j].tobytes() == \
                (math.exp(mu * j * dt) * evolve_state(F, w, 0, j)).tobytes()


def test_monodromy_spectrum_closed_form(heat_small):
    F = prepare(heat_small, 0.0)
    P = monodromy(F)
    g, tg = heat_small.grid, heat_small.tgrid
    eigs = np.sort(np.linalg.eigvals(P.P).real)[::-1]
    expected = np.sort([(1.0 + tg.dt * oracles.mode_eigenvalue(g, k)) ** (-tg.M)
                        for k in range(1, g.n + 1)])[::-1]
    assert np.allclose(eigs, expected, rtol=1e-9)


def test_constant_penalty_shifts_spectrum(heat_small):
    g, tg = heat_small.grid, heat_small.tgrid
    coeff = perevo.make_coefficients(g, tg, 1.0)
    spec = perevo.make_problem(g, tg, coeff, perevo.BoundarySpec("dirichlet"),
                               perevo.make_weight(g, tg, 1.0))
    lam = 7.0
    res = principal_pair(spec, lam)
    lam1 = oracles.mode_eigenvalue(g, 1)
    expected = (1.0 + tg.dt * (lam1 + lam)) ** (-tg.M)
    assert res.r == pytest.approx(expected, rel=1e-10)
    # eigenvector unchanged by a constant penalty
    mode = oracles.unit_l2h(oracles.sine_mode(g, 1), g.h)
    assert np.abs(res.w - mode).max() <= 1e-6


def test_principal_pair_baseline(heat_small):
    res = principal_pair(heat_small, 0.0)
    g, tg = heat_small.grid, heat_small.tgrid
    lam1 = oracles.mode_eigenvalue(g, 1)
    r_exact = (1.0 + tg.dt * lam1) ** (-tg.M)
    assert res.r == pytest.approx(r_exact, rel=1e-10)
    assert res.mu == pytest.approx(-math.log(r_exact) / tg.T, rel=1e-10)
    assert res.residual <= 1e-10 * res.r
    # eigenvalue/eigenvector consistency re-checked here, independent of the solver
    P = monodromy(prepare(heat_small, 0.0))
    assert eigengap(P) > 0
    h = g.h
    resid = math.sqrt(h * float(((P.P @ res.w) - res.r * res.w) @ ((P.P @ res.w) - res.r * res.w)))
    assert resid <= 1e-10 * res.r


def test_eigengap_at_odd_n_is_the_closed_form():
    # at odd n a deflated power pass from (+1, -1, ...) never sees the
    # antisymmetric second mode and reported r1 - r3 (0.367997 here)
    spec = perevo.builtin_scenario("heat_baseline", n=127, M=800)
    g, tg = spec.grid, spec.tgrid
    r1, r2 = ((1.0 + tg.dt * oracles.mode_eigenvalue(g, k)) ** (-tg.M) for k in (1, 2))
    assert eigengap(monodromy(prepare(spec, 0.0))) == pytest.approx(r1 - r2, rel=1e-10)


@pytest.mark.parametrize("kwargs, match", [
    ({"tol": 0.0}, "tol"),
    ({"max_iter": 0}, "max_iter"),
], ids=["tol", "max_iter"])
def test_bad_power_iteration_arguments_rejected_up_front(kwargs, match):
    with pytest.raises(ValueError, match=match):
        spectral_radius(_mat(np.eye(3)), **kwargs)


@pytest.mark.parametrize("n", [2, 3])
def test_scalar_problem_single_node(n):
    # the smallest grids: the period map is the power of one dense step
    grid = perevo.Grid1D(0.0, 1.0, n)
    tgrid = perevo.TimeGrid(1.0, 8)
    coeff = perevo.make_coefficients(grid, tgrid, 1.0)
    spec = perevo.make_problem(grid, tgrid, coeff, perevo.BoundarySpec("dirichlet"),
                               perevo.make_weight(grid, tgrid, 1.0))
    lam = 3.0
    F = prepare(spec, lam)
    P = monodromy(F)
    lower, diag, upper = perevo.assemble_A(spec, 0)
    dense = np.diag(diag + lam) + np.diag(upper[:-1], 1) + np.diag(lower[1:], -1)
    step = np.linalg.inv(np.eye(n) + tgrid.dt * dense)
    ref = np.linalg.matrix_power(step, tgrid.M)
    assert np.allclose(P.P, ref, atol=1e-13)


@pytest.mark.xfail(strict=True, reason="underflow reported as nilpotent (ROADMAP item 3)")
@pytest.mark.parametrize("lam", [1e3, 1e4, 1e5])
def test_constant_penalty_closed_form_at_large_penalties(lam):
    # the C02 problem: m = 1 on (0, pi), n = 128, M = 512; the period map is
    # entrywise positive for every finite penalty, so mu must stay finite
    g = perevo.Grid1D(0.0, math.pi, 128)
    t = perevo.TimeGrid(1.0, 512)
    spec = perevo.make_problem(g, t, perevo.make_coefficients(g, t, 1.0),
                               perevo.BoundarySpec("dirichlet"), perevo.make_weight(g, t, 1.0))
    lam1 = oracles.mode_eigenvalue(g, 1)
    exact = (t.M / t.T) * math.log(1 + t.dt * (lam1 + lam))
    res = principal_pair(spec, lam)
    assert not res.trivial
    assert abs(res.mu - exact) <= 1e-10 * exact


def test_positive_period_map_all_entries(heat_small):
    P = monodromy(prepare(heat_small, 0.0))
    assert P.P.min() > 0.0


def test_periodic_eigenfunction_stationary(heat_small):
    F = prepare(heat_small, 0.0)
    res = spectral_radius(monodromy(F))
    eig = periodic_eigenfunction(F, res)
    # autonomous problem: the eigenfunction is constant in time
    for j in (0, 5, heat_small.tgrid.M):
        assert np.abs(eig.samples[j] - res.w).max() <= 1e-10
    assert eig.defect <= 10 * 1e-10


def test_periodic_eigenfunction_nonnegative_and_periodic():
    spec = perevo.builtin_scenario("du_peng", n=48, M=256)
    F = prepare(spec, 1e4)
    res = spectral_radius(monodromy(F))
    eig = periodic_eigenfunction(F, res)
    assert eig.samples.min() >= 0.0
    assert eig.defect <= 10 * 1e-10
    # strictly positive on the free region's interior slices
    mask = perevo.build_mask(spec.weight, spec.grid, spec.tgrid)
    for j in (0, 100, 200):
        free = perevo.slices(mask, j) - 1  # lattice -> interior indices
        assert eig.samples[j][free].min() > 0.0


def test_trivial_limit_has_no_eigenfunction():
    res = spectral_radius(_mat(np.zeros((3, 3))))
    spec = perevo.builtin_scenario("heat_baseline", n=3, M=4)
    F = prepare(spec, 0.0)
    with pytest.raises(TrivialLimit):
        periodic_eigenfunction(F, res)


def test_counterexample_divergence_signature():
    spec = perevo.builtin_scenario("counterexample", n=30, M=300)
    mu_low = principal_pair(spec, 1e2).mu
    mu_high = principal_pair(spec, 1e5).mu
    assert mu_high > mu_low + 1.0
