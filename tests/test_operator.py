import math

import numpy as np
import pytest

import oracles
import perevo
from perevo.errors import DimensionMismatch
from perevo.evolve import prepare
from perevo.operator import band_matvec, stencil_bands


def _spec(n=3, bc="dirichlet", **kw):
    grid = perevo.Grid1D(0.0, 1.0, n)
    tgrid = perevo.TimeGrid(1.0, 4)
    coeff = perevo.make_coefficients(grid, tgrid, kw.pop("D", 1.0),
                                     a=kw.pop("a", 0.0), b=kw.pop("b", 0.0),
                                     c0=kw.pop("c0", 0.0))
    bspec = perevo.BoundarySpec(bc, **kw)
    return perevo.make_problem(grid, tgrid, coeff, bspec,
                               perevo.make_weight(grid, tgrid, 0.0))


def _row_sums(bands):
    lower, diag, upper = bands
    return lower + diag + upper


def test_dirichlet_laplacian_stencil():
    lower, diag, upper = perevo.assemble_A(_spec(), 0)
    assert np.allclose(diag, [32.0, 32.0, 32.0])
    assert np.allclose(upper[:-1], [-16.0, -16.0])
    assert np.allclose(lower[1:], [-16.0, -16.0])
    assert lower[0] == upper[-1] == 0.0


def test_neumann_ghost_elimination():
    bands = perevo.assemble_A(_spec(bc="neumann"), 0)
    # boundary diagonal halves, zero-flux row sums
    assert bands[1][0] == pytest.approx(16.0)
    assert bands[2][0] == pytest.approx(-16.0)
    assert np.allclose(_row_sums(bands), 0.0, atol=1e-12)


def test_robin_adds_boundary_mass():
    _, diag0, _ = perevo.assemble_A(_spec(bc="neumann"), 0)
    _, diag1, _ = perevo.assemble_A(_spec(bc="robin", b0_left=2.0, b0_right=3.0), 0)
    h = 0.25
    assert diag1[0] - diag0[0] == pytest.approx(2.0 / h)
    assert diag1[-1] - diag0[-1] == pytest.approx(3.0 / h)


def test_mixed_boundary_sides():
    spec = perevo.make_problem(
        perevo.Grid1D(0.0, 1.0, 3), perevo.TimeGrid(1.0, 4),
        perevo.make_coefficients(perevo.Grid1D(0.0, 1.0, 3), perevo.TimeGrid(1.0, 4), 1.0),
        perevo.BoundarySpec("mixed", kind_left="dirichlet", kind_right="neumann"),
        perevo.make_weight(perevo.Grid1D(0.0, 1.0, 3), perevo.TimeGrid(1.0, 4), 0.0))
    _, diag, _ = perevo.assemble_A(spec, 0)
    assert diag[0] == pytest.approx(32.0)   # dirichlet side keeps full stiffness
    assert diag[-1] == pytest.approx(16.0)  # flux side halves


def test_potential_shifts_diagonal():
    _, diag0, upper0 = perevo.assemble_A(_spec(), 0)
    _, diag5, upper5 = perevo.assemble_A(_spec(c0=5.0), 0)
    assert np.allclose(diag5 - diag0, 5.0)
    assert np.array_equal(upper5, upper0)


def test_symmetry_without_drift():
    spec = _spec(n=12, D=lambda x, t: 1.0 + 0.3 * x + 0.0 * t)
    lower, _, upper = perevo.assemble_A(spec, 2)
    assert np.allclose(lower[1:], upper[:-1])


def test_m_matrix_pattern_and_row_sums_neumann():
    spec = _spec(n=16, bc="neumann", b=0.5)
    bands = perevo.assemble_A(spec, 1)
    assert np.all(bands[0] <= 0.0) and np.all(bands[2] <= 0.0)
    assert np.allclose(_row_sums(bands), 0.0, atol=1e-12)
    # mesh-Peclet satisfied here
    assert perevo.mesh_peclet_ok(spec)


def test_peclet_violation_detected():
    spec = _spec(n=4, b=1000.0)
    assert not perevo.mesh_peclet_ok(spec)
    lower, _, upper = perevo.assemble_A(spec, 0)
    assert not (np.all(lower <= 0.0) and np.all(upper <= 0.0))


def test_penalty_sampling():
    grid = perevo.Grid1D(0.0, 1.0, 3)
    tgrid = perevo.TimeGrid(1.0, 4)
    coeff = perevo.make_coefficients(grid, tgrid, 1.0)
    w = perevo.make_weight(grid, tgrid, lambda x, t: x + 0.0 * t)
    spec = perevo.make_problem(grid, tgrid, coeff, perevo.BoundarySpec("dirichlet"), w)
    pen = prepare(spec, 0.0).weight[2]
    assert np.allclose(pen, [0.25, 0.5, 0.75])
    assert np.all(pen >= 0)


def test_bilinear_form_zero_and_mode():
    # h u^T A u through the bands
    spec = _spec(n=31)
    bands = perevo.assemble_A(spec, 0)
    h = spec.grid.h
    z = np.zeros(31)
    assert h * float(z @ band_matvec(*bands, z)) == 0.0

    mode = oracles.sine_mode(spec.grid, 1)
    lam1 = oracles.mode_eigenvalue(spec.grid, 1)
    expected = h * lam1 * float(mode @ mode)
    assert h * float(mode @ band_matvec(*bands, mode)) == pytest.approx(expected, rel=1e-12)


def test_garding_inequality_random_vectors():
    # constant drift keeps the advection quadratic form exactly skew, so the
    # inequality holds with the plain coercivity shift
    for kw in ({}, {"a": 1.5}, {"b": -2.0}, {"a": 1.0, "b": 1.0, "c0": -4.0}):
        spec = _spec(n=24, **kw)
        worst = perevo.garding_audit(spec, n_vectors=100, seed=11)
        assert worst >= -1e-12


def test_garding_audit_draws_vectors_in_seed_order():
    # one vector at a time, level after level, against the dense matrices:
    # the same seed selects the same vectors, and the shift gamma0 is added
    spec = _spec(n=12, a=1.0, b=1.0, c0=-4.0)
    gamma0 = perevo.coercivity_shift(spec.coeff)
    assert gamma0 == pytest.approx(5.0)
    h, dt, M = spec.grid.h, spec.tgrid.dt, spec.tgrid.M
    rng = np.random.default_rng(7)
    forms = []
    for j in (0, M // 2, M):
        A = (oracles.dense_step_matrix(spec, 0.0, j) - np.eye(12)) / dt
        for _ in range(30):
            u = rng.standard_normal(12)
            forms.append(h * float(u @ A @ u) + gamma0 * h * float(u @ u))
    worst = perevo.garding_audit(spec, n_vectors=30, seed=7)
    assert worst == pytest.approx(min(forms), rel=1e-12)


def test_matvec_matches_dense():
    # every level of a drifted, time-varying problem against the entry-by-entry
    # dense matrix of tests/oracles.py, which does not read the bands
    rng = np.random.default_rng(5)
    spec = _spec(n=10, D=lambda x, t: 1.0 + 0.2 * x + 0.3 * np.sin(2 * math.pi * t),
                 a=lambda x, t: 0.3 + 0.2 * x * np.cos(2 * math.pi * t),
                 b=lambda x, t: -0.2 + 0.1 * np.sin(2 * math.pi * t) + 0.0 * x,
                 c0=lambda x, t: 1.0 + x * t)
    dt, n = spec.tgrid.dt, spec.grid.n
    all_levels = stencil_bands(spec)
    U = rng.standard_normal((n, 5))
    for j in range(spec.tgrid.M + 1):
        bands = perevo.assemble_A(spec, j)
        for band, rows in zip(bands, all_levels):
            assert np.array_equal(band, rows[j])
        dense = (oracles.dense_step_matrix(spec, 0.0, j) - np.eye(n)) / dt
        assert np.allclose(band_matvec(*bands, U), dense @ U, rtol=1e-12, atol=1e-10)
        assert np.allclose(band_matvec(*bands, U[:, 0]), dense @ U[:, 0], rtol=1e-12, atol=1e-10)


def test_assemble_A_rejects_levels_outside_the_period():
    spec = _spec()
    perevo.assemble_A(spec, spec.tgrid.M)  # the last level is fine
    for j in (-1, spec.tgrid.M + 1):
        with pytest.raises(DimensionMismatch):
            perevo.assemble_A(spec, j)
