import math

import numpy as np
import pytest

import oracles
import perevo
from perevo.errors import NoConvergence, TrivialLimit
from perevo.evolve import prepare
from perevo.spectral import (MonodromyMatrix, monodromy, periodic_eigenfunction,
                             principal_pair, spectral_radius)


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
    res = spectral_radius(_mat(np.diag([2.0, 1.0]), h=0.5))
    assert res.r == pytest.approx(2.0)
    assert res.eigengap == pytest.approx(1.0, abs=1e-6)
    assert abs(res.w[1]) <= 1e-8


def test_zero_period_map_is_trivial():
    res = spectral_radius(_mat(np.zeros((4, 4))))
    assert res.trivial and res.mu == math.inf


def test_no_convergence_raises():
    # eigenvalues +-1: power iteration oscillates forever
    P = np.array([[0.0, 2.0], [0.5, 0.0]])
    with pytest.raises(NoConvergence):
        spectral_radius(_mat(P), max_iter=100)


def test_scale_invariance_of_start():
    # the first normalization absorbs the scale; results agree to rounding
    rng = np.random.default_rng(8)
    P = _mat(rng.random((12, 12)))
    base = spectral_radius(P)
    for scale in rng.uniform(0.1, 10.0, size=3):
        res = spectral_radius(P, start=scale * np.ones(12))
        assert res.r == pytest.approx(base.r, rel=1e-12)
        assert np.abs(res.w - base.w).max() <= 1e-10


def test_monodromy_matches_dense_product(heat_unit):
    F = prepare(heat_unit, 0.0)
    P = monodromy(F)
    ref = oracles.dense_period_map(F)
    assert np.abs(P.P - ref).max() <= 1e-12 * np.abs(ref).max()
    assert P.positivity


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
    assert res.eigengap > 0
    # eigenvalue/eigenvector consistency re-checked here, independent of the solver
    P = monodromy(prepare(heat_small, 0.0))
    h = g.h
    resid = math.sqrt(h * float(((P.P @ res.w) - res.r * res.w) @ ((P.P @ res.w) - res.r * res.w)))
    assert resid <= 1e-10 * res.r


@pytest.mark.parametrize("kwargs, match", [
    ({"start": np.zeros(3)}, "nonzero"),
    ({"start": np.array([1.0, np.nan, 1.0])}, "finite"),
    ({"start": np.array([1.0, np.inf, 1.0])}, "finite"),
    ({"start": np.full(3, 1e200)}, "nonzero, finite norm, got inf"),
    ({"start": np.ones(4)}, r"shape \(3,\), got \(4,\)"),
    ({"start": np.ones((3, 1))}, r"shape \(3,\)"),
    ({"tol": 0.0}, "tol"),
    ({"max_iter": 0}, "max_iter"),
], ids=["zero", "nan", "inf", "norm_overflow", "too_long", "column", "tol", "max_iter"])
def test_bad_power_iteration_arguments_rejected_up_front(kwargs, match):
    # a zero or non-finite start used to run every iteration on NaN
    with pytest.raises(ValueError, match=match):
        spectral_radius(_mat(np.eye(3)), **kwargs)


@pytest.mark.parametrize("n", [2, 3])
def test_scalar_problem_single_node(n):
    # the smallest grids (n = 2 is below dgttrf's minimum): the period map is
    # the power of one dense step
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


@pytest.mark.xfail(strict=True, reason="underflow reported as nilpotent (ROADMAP item 2)")
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
        assert np.abs(eig.at_level(j) - res.w).max() <= 1e-10
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
        assert eig.at_level(j)[free].min() > 0.0


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
