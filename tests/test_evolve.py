import math
import os
import signal
import sys
import threading
import time
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
import perevo
from dgtsv_hook import hook_dgtsv
from perevo import _lapack, evolve, operator
from perevo.errors import DimensionMismatch, InvariantError, LevelOrder, SingularStep
from perevo.evolve import (ForcingField, energy_report, evolve_rescaled, evolve_state,
                           mild_solution, prepare, trajectory_rows)
from perevo.kernel import kernel_matrix
from perevo.operator import stencil_bands
from perevo.spectral import monodromy, spectral_radius
from scipy.linalg import cython_lapack
from scipy.linalg.lapack import dgtsv, dgttrf


def test_prepare_certificate_baseline(heat_small):
    F = prepare(heat_small, 0.0)
    assert F.positivity


def test_prepare_certificate_large_penalty(heat_small):
    F = prepare(heat_small, 1e6)
    assert F.positivity


def test_prepare_warns_on_strong_advection():
    grid = perevo.Grid1D(0.0, 1.0, 8)
    tgrid = perevo.TimeGrid(1.0, 8)
    coeff = perevo.make_coefficients(grid, tgrid, 1.0, b=1000.0)
    spec = perevo.make_problem(grid, tgrid, coeff, perevo.BoundarySpec("dirichlet"),
                               perevo.make_weight(grid, tgrid, 0.0))
    with pytest.warns(UserWarning, match="positivity not certified"):
        F = prepare(spec, 0.0)
    assert not F.positivity


SIN_T = """
[grid]
x_lo = 0.0
x_hi = 1.0
n = 16

[time]
T = 1.0
M = 32

[coefficients]
D = sin_t(1.0, 0.5)

[boundary]
bc = dirichlet

[weight]
weight = indicator_box(0.25, 0.75, 0.25, 0.75)
"""


# b, c0 and the weight change mid-period only at endpoint nodes, which
# neither the stencil nor the step matrices read
ENDPOINT_ONLY = SIN_T.replace("D = sin_t(1.0, 0.5)", """D = 1.0
b = indicator_box(-1.0, 0.01, 0.25, 0.75)
c0 = indicator_box(0.99, 2.0, 0.5, 1.0)""").replace(
    "weight = indicator_box(0.25, 0.75, 0.25, 0.75)", "weight = indicator_box(0.99, 2.0, 0.0, 0.5)")


def test_prepare_certifies_each_run_once(heat_small, du_peng_small, monkeypatch):
    # one pivot-certifying solve per run of identical levels that a step
    # enters: heat is one run, du_peng three (before, inside and after its
    # switch, level M being level 0 again), sin_t changes D at every level,
    # and the endpoint-only changes split no run; a vector then takes one
    # solve per step
    calls = hook_dgtsv(monkeypatch)
    sin_t, ends = perevo.build_problem(SIN_T), perevo.build_problem(ENDPOINT_ONLY)
    assert ends.coeff.b[0].any() and ends.coeff.c0[-1].any() and ends.weight.values[-1].any()
    for spec, runs in ((heat_small, 1), (du_peng_small, 3), (sin_t, sin_t.tgrid.M), (ends, 1)):
        calls.clear()
        F = prepare(spec, 1.0)
        assert len(calls) == runs and {nrhs for nrhs, _ in calls} == {1}
        assert len({id(r) for r in F.rows}) == evolve.distinct_steps(spec) == runs
        assert {r.tobytes() for r in F.rows} == {rows.tobytes() for _, rows in calls}
        assert len(F.rows) == spec.tgrid.M
        assert "rows=" not in repr(F)
        evolve_state(F, np.ones(spec.grid.n), 0, 3)
        assert len(calls) == runs + 3
        assert all(rows.tobytes() == F.rows[j].tobytes() for j, (_, rows) in enumerate(calls[runs:]))


def test_zero_pivot_is_certified_by_the_binding():
    # two nodes, c0 = -17, no penalty: I + dt A is exactly singular, and the
    # elimination meets the zero at its second pivot
    grid, tgrid = perevo.Grid1D(0.0, 1.0, 2), perevo.TimeGrid(1.0, 8)
    spec = perevo.make_problem(grid, tgrid, perevo.make_coefficients(grid, tgrid, 1.0, c0=-17.0),
                               perevo.BoundarySpec("dirichlet"), perevo.make_weight(grid, tgrid, 1.0))
    with pytest.raises(SingularStep, match="^factorization failed at step 0: zero pivot 2$"):
        prepare(spec, 0.0)
    prepare(spec, 1.0)


def _reference_evolve(spec, lam, state, from_level, to_level, active=None):
    """Step state with scipy's own dgtsv wrapper on every level's own step
    matrix, built from stencil_bands(spec) with no sharing between levels."""
    lower, diag, upper = stencil_bands(spec)
    weight = spec.weight.values[1:-1].T
    dt = spec.tgrid.dt
    for j in range(from_level, to_level):
        dl = lower[j + 1, 1:] * dt
        d = diag[j + 1] * dt + (1.0 + dt * lam * weight[j + 1])
        du = upper[j + 1, :-1] * dt
        if active is not None:
            cut = ~(active[j + 1, :-1] & active[j + 1, 1:])
            dl[cut] = du[cut] = 0.0
            d[~active[j + 1]] = 1.0
        if active is not None:
            state = np.where(active[j + 1][:, None], state, 0.0)
        *_, state, info = dgtsv(dl, d, du, state)
        assert info == 0
    return state


def _free_mask(spec):
    return np.ascontiguousarray(
        perevo.build_mask(spec.weight, spec.grid, spec.tgrid).free[1:-1].T)


def _wall_mask(spec):
    """A mask that changes where the weight does not: a wall at a third of the
    nodes for the middle half of the period."""
    active = np.ones((spec.tgrid.M + 1, spec.grid.n), dtype=bool)
    active[spec.tgrid.M // 4:3 * spec.tgrid.M // 4, spec.grid.n // 3] = False
    return active


@pytest.mark.parametrize("target, lattice, mask", [
    ("heat_baseline", {}, None),
    ("du_peng", {}, None),
    ("counterexample", {"n": 20, "M": 60}, None),
    ("du_peng", {}, _free_mask),
    ("heat_baseline", {}, _wall_mask),
    (SIN_T, {}, None),
    (ENDPOINT_ONLY, {}, None),
], ids=["heat", "du_peng", "counterexample", "oracle", "heat_walled", "sin_t", "endpoint_only"])
def test_shared_factors_match_per_level_factors_bit_for_bit(target, lattice, mask):
    if target in (SIN_T, ENDPOINT_ONLY):
        spec = perevo.build_problem(target)
    else:
        spec = perevo.builtin_scenario(target, **{"n": 32, "M": 64, **lattice})
    active = None if mask is None else mask(spec)
    n, M = spec.grid.n, spec.tgrid.M
    for lam in (0.0, 10.0):
        F = prepare(spec, lam, active)
        want = _reference_evolve(spec, lam, np.eye(n), 0, M, active)
        assert monodromy(F).P.tobytes() == want.tobytes()
        want = _reference_evolve(spec, lam, np.eye(n), 3, M // 2 + 1, active) / spec.grid.h
        assert kernel_matrix(F, 3, M // 2 + 1).entries.tobytes() == want.tobytes()


def _split(rows, n):
    """The (dl, d, du) bands of one packed rows array."""
    return rows[:n - 1], rows[n - 1:2 * n - 1], rows[2 * n - 1:]


def _binding_solve(rows, b):
    """Solve with the binding in a copy of b, as one evolution step does."""
    x = np.array(b, order="F")
    bands = np.array(rows)
    args, info = evolve._dgtsv_args(bands, x)
    evolve._dgtsv(*args)
    return x, info.value


def _scipy_solve(rows, b):
    """scipy's f2py dgtsv, which wants bands of at least one entry at n = 1."""
    n = b.shape[0]
    dl, d, du = _split(rows, n) if n > 1 else (np.zeros(1), rows, np.zeros(1))
    *_, x, info = dgtsv(dl, d, du, b)
    return x, info


def test_binding_matches_scipy_dgtsv_bit_for_bit():
    # n = 1 and 2, one and many right-hand sides, row interchanges and zero
    # pivots, against scipy's f2py wrapper of the same dgtsv
    rng = np.random.default_rng(14)
    swapped = singular = 0
    for trial in range(1000):
        n = (1, 2)[trial] if trial < 2 else int(rng.integers(1, 70))
        rows = rng.standard_normal(3 * n - 2)
        if trial % 50 == 7:
            rows[n - 1] = 0.0  # a zero first pivot unless row 2 takes its place
            rows[:1] = 0.0
        for b in (rng.standard_normal(n), rng.standard_normal((n, 1)),
                  rng.standard_normal((n, int(rng.integers(2, 70))))):
            got, info = _binding_solve(rows, b)
            want, want_info = _scipy_solve(rows, b)
            assert info == want_info
            if info == 0:
                assert got.tobytes() == want.tobytes()
        singular += info > 0
        if n > 2:
            dl, d, _ = _split(rows, n)
            swapped += bool(np.abs(dl[0]) > np.abs(d[0]))
    assert swapped >= 300 and singular >= 10
    with pytest.warns(UserWarning, match="positivity not certified"):
        F = prepare(_strong_advection(9, 16), 2.0)  # every step interchanges rows
    for rows in F.rows:
        for b in (rng.standard_normal(9), rng.standard_normal((9, 7))):
            assert _binding_solve(rows, b)[0].tobytes() == _scipy_solve(rows, b)[0].tobytes()


def test_binding_rejects_buffers_it_cannot_step():
    n = 5
    bands = np.ones(3 * n - 2)
    for bad in (np.ones((n, 4)),  # C-ordered
                np.lib.stride_tricks.as_strided(np.ones(4 * n), (n, 4), (8, 8 * (n - 1))),  # ldb < n
                np.ones((n, 4), order="F")[:, ::-1],  # columns run backwards
                np.ones(2 * n)[::2],  # a strided vector
                np.ones(n, dtype=np.float32),
                np.broadcast_to(np.ones(1), (n,))):  # read-only, one value
        with pytest.raises(InvariantError, match="ldb"):
            evolve._dgtsv_args(bands, bad)
    with pytest.raises(InvariantError):
        evolve._dgtsv_args(np.ones(3 * n), np.ones(n))
    for good, ldb in ((np.ones((n, 8), order="F")[:, 2:5], n),
                      (np.ones((n, 8), order="F")[:, ::2], 2 * n),
                      (np.ones((n + 1, 4), order="F")[:n], n + 1),
                      (np.ones((n + 1, 4), order="F")[1:], n + 1)):
        args, _ = evolve._dgtsv_args(bands, good)
        assert args[6]._obj.value == ldb


def test_a_capsule_of_another_signature_fails_the_binding(monkeypatch):
    assert evolve.DGTSV_SIGNATURE == "void (int *, int *, d *, d *, d *, d *, int *, int *)"
    assert operator.DSTEBZ_SIGNATURE == ("void (char *, char *, int *, d *, d *, int *, int *, "
                                         "d *, d *, d *, int *, int *, d *, int *, int *, d *, "
                                         "int *, int *)")
    capi = cython_lapack.__pyx_capi__
    other = SimpleNamespace(__pyx_capi__={"dgtsv": capi["dgttrs"], "dstebz": capi["dstein"]})
    monkeypatch.setattr(_lapack, "_cython_lapack", lambda: other)
    with pytest.raises(ImportError, match="exports dgtsv as"):
        _lapack.bind("dgtsv", evolve.DGTSV_SIGNATURE)
    with pytest.raises(ImportError, match="exports dstebz as"):
        _lapack.bind("dstebz", operator.DSTEBZ_SIGNATURE)
    monkeypatch.undo()
    _lapack.bind("dgtsv", evolve.DGTSV_SIGNATURE)
    _lapack.bind("dstebz", operator.DSTEBZ_SIGNATURE)


def _strong_advection(n, M):
    """A problem with advection far too strong for its grid: |dl| > |d| in
    every step matrix, so dgttrf interchanges rows."""
    grid, tgrid = perevo.Grid1D(0.0, 1.0, n), perevo.TimeGrid(1.0, M)
    coeff = perevo.make_coefficients(grid, tgrid, 1.0, b=1000.0)
    return perevo.make_problem(grid, tgrid, coeff, perevo.BoundarySpec("dirichlet"),
                               perevo.make_weight(grid, tgrid, 1.0))


@pytest.mark.parametrize("mask", [None, _wall_mask], ids=["free", "walled"])
def test_row_interchanges_keep_the_bits_on_every_path(mask, monkeypatch):
    spec = _strong_advection(9, 16)
    active = None if mask is None else mask(spec)
    with pytest.warns(UserWarning, match="positivity not certified"):
        F = prepare(spec, 2.0, active)
    n = spec.grid.n
    assert any((dgttrf(*_split(rows, n))[-2] != np.arange(1, n + 1)).any() for rows in F.rows)
    V = np.random.default_rng(9).standard_normal((n, 2 * evolve.BLOCK_MIN_COLUMNS + 3))
    want = _reference_evolve(spec, 2.0, V, 0, spec.tgrid.M, active)
    for workers in (1, 2):  # one buffer, then two column blocks
        monkeypatch.setattr(evolve, "column_workers", lambda workers=workers: workers)
        assert evolve_state(F, V, 0, spec.tgrid.M).tobytes() == want.tobytes()
    alone = evolve_state(F, V[:, 5], 0, spec.tgrid.M)
    assert alone.tobytes() == want[:, 5].tobytes()


@pytest.mark.parametrize("name", ["heat_baseline", "du_peng"])
def test_two_nodes_step_alike_split_and_serial(name, monkeypatch):
    # n = 2 splits like any other n: two blocks of BLOCK_MIN_COLUMNS columns
    spec = perevo.builtin_scenario(name, n=2, M=16)
    V = np.random.default_rng(2).random((2, 2 * evolve.BLOCK_MIN_COLUMNS))
    for lam in (0.0, 3.0, 1e4):
        F = prepare(spec, lam)
        want = _reference_evolve(spec, lam, V, 0, spec.tgrid.M)
        monkeypatch.setattr(evolve, "column_workers", lambda: 2)
        with monkeypatch.context() as m:
            calls = hook_dgtsv(m)
            blocks = evolve_state(F, V, 0, spec.tgrid.M)
        assert [nrhs for nrhs, _ in calls] == [evolve.BLOCK_MIN_COLUMNS] * 2 * spec.tgrid.M
        monkeypatch.setattr(evolve, "column_workers", lambda: 1)
        serial = evolve_state(F, V, 0, spec.tgrid.M)
        assert blocks.tobytes() == serial.tobytes() == want.tobytes()


def test_evolutions_leave_their_input_and_the_rows_unchanged(du_peng_small):
    F = prepare(du_peng_small, 10.0)
    rows = [r.copy() for r in F.rows]
    V = np.asfortranarray(np.random.default_rng(5).random((du_peng_small.grid.n, 8)))
    kept = V.copy(order="A")
    evolve_state(F, V, 0, du_peng_small.tgrid.M)
    mild_solution(F, V[:, 0], ForcingField.constant(1.0, du_peng_small.grid, du_peng_small.tgrid))
    assert V.tobytes(order="A") == kept.tobytes(order="A")
    assert all(r.tobytes() == c.tobytes() for r, c in zip(F.rows, rows))
    assert not any(r.flags.writeable for r in F.rows)
    assert all(r.shape == (3 * du_peng_small.grid.n - 2,) for r in F.rows)


def test_levels_differing_in_the_sign_of_a_zero_do_not_share_factors():
    grid, tgrid = perevo.Grid1D(0.0, 1.0, 8), perevo.TimeGrid(1.0, 8)
    c0 = np.zeros((grid.n + 2, tgrid.M + 1))
    c0[:, 5:] = -0.0  # equal to 0.0 as floats, not as bits
    spec = perevo.make_problem(grid, tgrid, perevo.make_coefficients(grid, tgrid, 1.0, c0=c0),
                               perevo.BoundarySpec("dirichlet"), perevo.make_weight(grid, tgrid))
    assert evolve.level_runs(spec).tolist() == [0] * 5 + [1] * 4
    F = prepare(spec, 1.0)
    assert len({id(r) for r in F.rows}) == 2
    assert F.rows[3] is F.rows[0] and F.rows[4] is F.rows[7] is not F.rows[3]
    want = _reference_evolve(spec, 1.0, np.eye(grid.n), 0, tgrid.M)
    assert monodromy(F).P.tobytes() == want.tobytes()


def test_negative_penalty_rejected(heat_small):
    with pytest.raises(InvariantError):
        prepare(heat_small, -1.0)


def test_identity_at_equal_levels(heat_small):
    F = prepare(heat_small, 0.0)
    v = np.linspace(0, 1, heat_small.grid.n)
    assert np.array_equal(evolve_state(F, v, 3, 3), v)


def test_level_order_enforced(heat_small):
    F = prepare(heat_small, 0.0)
    with pytest.raises(LevelOrder):
        evolve_state(F, np.zeros(heat_small.grid.n), 5, 2)


@pytest.mark.parametrize("shape", [(), (32, 2, 2), (31,), (31, 4)],
                         ids=["scalar", "three_axes", "short_vector", "short_matrix"])
def test_states_that_are_not_vectors_or_matrices_rejected(heat_small, shape):
    # a scalar used to raise IndexError and an (n, 2, 2) array to evolve
    F = prepare(heat_small, 0.0)
    with pytest.raises(DimensionMismatch):
        evolve_state(F, np.ones(shape), 0, 2)


def test_sine_mode_closed_form(heat_small):
    F = prepare(heat_small, 0.0)
    g, tg = heat_small.grid, heat_small.tgrid
    mode = oracles.sine_mode(g, 1)
    lam1 = oracles.mode_eigenvalue(g, 1)
    out = evolve_state(F, mode, 0, tg.M)
    expected = (1.0 + tg.dt * lam1) ** (-tg.M) * mode
    assert np.abs(out - expected).max() <= 1e-10 * np.abs(expected).max()


def test_composition_bit_identical(heat_small):
    F = prepare(heat_small, 0.0)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(heat_small.grid.n)
    for k, l, j in [(0, 7, 20), (3, 10, 64), (5, 5, 9)]:
        direct = evolve_state(F, v, k, j)
        split = evolve_state(F, evolve_state(F, v, k, l), l, j)
        assert np.array_equal(direct, split)


def test_positivity_over_sweep_grid(du_peng_small):
    rng = np.random.default_rng(1)
    batch = rng.random((du_peng_small.grid.n, 50))  # 50 nonnegative states
    for lam in (0.0, 1.0, 10.0, 100.0, 1e4):
        F = prepare(du_peng_small, lam)
        assert F.positivity
        out = evolve_state(F, batch, 0, du_peng_small.tgrid.M)
        assert out.min() >= 0.0


def test_monotone_decay_in_penalty(du_peng_small):
    rng = np.random.default_rng(2)
    v = rng.random(du_peng_small.grid.n)
    lams = [0.0, 1.0, 10.0, 100.0, 1e3]
    Fs = [prepare(du_peng_small, lam) for lam in lams]
    states = [v.copy() for _ in lams]
    for j in range(du_peng_small.tgrid.M):
        states = [evolve_state(F, s, j, j + 1) for F, s in zip(Fs, states)]
        for s1, s2 in zip(states, states[1:]):
            assert float((s2 - s1).max()) <= 1e-12


def test_mild_solution_against_dense_spacetime(heat_unit):
    F = prepare(heat_unit, 0.0)
    n = heat_unit.grid.n
    f = ForcingField.constant(1.0, heat_unit.grid, heat_unit.tgrid)
    traj = mild_solution(F, np.zeros(n), f)
    ref = oracles.dense_spacetime_trajectory(F, np.zeros(n), f.values)
    worst = max(np.abs(ref[j] - traj[j]).max() for j in range(len(ref)))
    assert worst <= 1e-12


def test_mild_solution_unforced_matches_evolve(heat_unit):
    F = prepare(heat_unit, 0.0)
    rng = np.random.default_rng(4)
    u0 = rng.standard_normal(heat_unit.grid.n)
    traj = mild_solution(F, u0, None)
    for j in (0, 10, heat_unit.tgrid.M):
        assert np.array_equal(traj[j], evolve_state(F, u0, 0, j))


def test_duhamel_reconstruction(heat_unit):
    F = prepare(heat_unit, 0.0)
    g, tg = heat_unit.grid, heat_unit.tgrid
    f = ForcingField.from_function(lambda x, t: np.sin(math.pi * x) * (1.0 + t), g, tg)
    u0 = np.cos(math.pi * g.interior())
    traj = mild_solution(F, u0, f)
    hom = evolve_state(F, u0, 0, tg.M)
    voc = np.zeros(g.n)
    for k in range(tg.M):
        contrib = evolve_state(F, tg.dt * f.values[1:-1, k + 1], k, k + 1)
        voc += evolve_state(F, contrib, k + 1, tg.M)
    ref = hom + voc
    assert np.abs(traj[-1] - ref).max() <= 1e-10 * max(np.abs(ref).max(), 1e-30)


def test_forced_positive_trajectory(du_peng_small):
    F = prepare(du_peng_small, 10.0)
    g, tg = du_peng_small.grid, du_peng_small.tgrid
    f = ForcingField.constant(0.5, g, tg)
    traj = mild_solution(F, np.ones(g.n), f)
    assert traj.min() >= 0.0


def test_energy_zero_data_gives_zero_ratio(heat_small):
    F = prepare(heat_small, 0.0)
    traj = mild_solution(F, np.zeros(heat_small.grid.n), None)
    rep = energy_report(F, traj, None, 0.0)
    assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.ratio == 0.0


def test_energy_gamma_below_shift_rejected():
    grid = perevo.Grid1D(0.0, 1.0, 8)
    tgrid = perevo.TimeGrid(1.0, 8)
    coeff = perevo.make_coefficients(grid, tgrid, 1.0, c0=-2.0)
    spec = perevo.make_problem(grid, tgrid, coeff, perevo.BoundarySpec("dirichlet"),
                               perevo.make_weight(grid, tgrid, 0.0))
    F = prepare(spec, 0.0)
    traj = mild_solution(F, np.ones(8), None)
    with pytest.raises(InvariantError):
        energy_report(F, traj, None, 0.0)
    energy_report(F, traj, None, 2.0)  # at the shift: fine


def test_energy_decay_ratio_below_one(heat_small):
    F = prepare(heat_small, 0.0)
    mode = oracles.sine_mode(heat_small.grid, 1)
    traj = mild_solution(F, mode, None)
    rep = energy_report(F, traj, None, 0.0)
    assert 0.0 < rep.ratio <= 1.0


def test_energy_penalty_term_enters(du_peng_small):
    F = prepare(du_peng_small, 50.0)
    u0 = np.ones(du_peng_small.grid.n)
    traj = mild_solution(F, u0, None)
    rep_pen = energy_report(F, traj, None, 0.0)
    F0 = prepare(du_peng_small, 0.0)
    traj0 = mild_solution(F0, u0, None)
    rep0 = energy_report(F0, traj0, None, 0.0)
    assert rep_pen.lhs > 0 and rep0.lhs > 0
    assert rep_pen.ratio <= 1.0 and rep0.ratio <= 1.0


def test_trajectory_rows_long_format(heat_small):
    F = prepare(heat_small, 0.0)
    traj = mild_solution(F, np.ones(heat_small.grid.n), None)
    rows = list(trajectory_rows(traj, heat_small))
    n, M = heat_small.grid.n, heat_small.tgrid.M
    assert len(rows) == n * (M + 1)
    t0, x0, u0 = rows[0]
    assert t0 == 0.0 and x0 == pytest.approx(heat_small.grid.h) and u0 == 1.0


def _split_spec(n):
    return prepare(perevo.builtin_scenario("du_peng", n=n, M=96), 10.0)


# the "1.0" in the case ids is the theta of the fully implicit step, kept
# from when the cases also ran theta = 1/2 so their names stay stable
@pytest.mark.parametrize("levels", [(0, 96), (7, 40)], ids=["1.0-full", "1.0-partial"])
@pytest.mark.parametrize("n", [64, 127, 144])
def test_column_blocks_match_single_columns(n, levels, monkeypatch):
    # with three workers 64 columns make two blocks, 127 three uneven blocks
    # and 144 three
    monkeypatch.setattr(evolve, "column_workers", lambda: 3)
    F = _split_spec(n)
    V = np.random.default_rng(n).random((n, n))
    W = evolve_state(F, V, *levels)
    single = np.column_stack([evolve_state(F, V[:, c], *levels) for c in range(n)])
    assert np.array_equal(W, single)
    assert W.flags.f_contiguous


def test_one_worker_gives_the_same_bytes(monkeypatch):
    for n in (64, 127):
        F = _split_spec(n)
        V = np.random.default_rng(3).random((n, n))
        monkeypatch.setattr(evolve, "column_workers", lambda: 2)
        split = evolve_state(F, V, 0, 96)
        monkeypatch.setattr(evolve, "column_workers", lambda: 1)
        serial = evolve_state(F, V, 0, 96)
        assert split.tobytes(order="A") == serial.tobytes(order="A")
        assert split.flags.f_contiguous and serial.flags.f_contiguous


def test_concurrent_callers_get_the_bits_of_single_columns(monkeypatch):
    # more column workers and callers than cores, with frequent thread switches
    monkeypatch.setattr(evolve, "column_workers", lambda: 4)
    F = _split_spec(127)
    inputs = [np.random.default_rng(s).random((127, 127)) for s in range(6)]
    want = [np.column_stack([evolve_state(F, V[:, c], 0, 24) for c in range(127)])
            for V in inputs]
    got = [None] * len(inputs)

    def caller(i):
        got[i] = evolve_state(F, inputs[i], 0, 24)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller, args=(i,)) for i in range(len(inputs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(g is not None and np.array_equal(g, w) for g, w in zip(got, want))


def test_split_evolution_leaves_no_thread_behind(monkeypatch):
    monkeypatch.setattr(evolve, "column_workers", lambda: 2)
    F = _split_spec(127)
    calls = hook_dgtsv(monkeypatch)
    evolve_state(F, np.eye(127), 0, 96)
    assert sorted(nrhs for nrhs, _ in calls) == [63] * 96 + [64] * 96  # two blocks stepped
    alive = [t.name for t in threading.enumerate() if t.name.startswith("perevo-columns")]
    assert alive == []


def test_forked_child_finishes_a_monodromy(monkeypatch):
    # fork while another thread is inside a split evolution: the first dgtsv
    # call holds its block until the fork is done, so a perevo-columns thread
    # is alive at the fork
    monkeypatch.setattr(evolve, "column_workers", lambda: 2)
    F = _split_spec(96)
    want = monodromy(F).P
    inside, forked = threading.Event(), threading.Event()

    def held_once(call):
        if not inside.is_set():
            inside.set()
            forked.wait(60.0)

    hook_dgtsv(monkeypatch, held_once)
    got = []
    background = threading.Thread(target=lambda: got.append(monodromy(F).P))
    background.start()
    try:
        while not inside.wait(0.01):  # fail at once if the hook is never reached
            assert background.is_alive(), "the monodromy never reached the dgtsv hook"
        assert any(t.name.startswith("perevo-columns") for t in threading.enumerate())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # fork of a threaded process
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if np.array_equal(monodromy(F).P, want) else 3
            finally:
                os._exit(code)
    finally:
        forked.set()
        background.join(60.0)
    deadline = time.monotonic() + 60.0
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("child process hung in monodromy after fork")
        time.sleep(0.05)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
    assert not background.is_alive() and np.array_equal(got[0], want)


def test_powers_of_two_commute_with_every_evolution(monkeypatch):
    # the rescaling rests on this: dgtsv is linear and a power of two scales
    # each of its operations exactly, on one buffer and on two column blocks
    spec = perevo.builtin_scenario("du_peng")
    F = prepare(spec, 1e3)
    n, M = spec.grid.n, spec.tgrid.M
    for workers in (1, 2):
        monkeypatch.setattr(evolve, "column_workers", lambda workers=workers: workers)
        P = evolve_state(F, np.eye(n), 0, M)
        for scale, rescaled in ((2.0 ** 300, False), (2.0 ** -300, True)):
            want = (scale * P).tobytes()
            assert evolve_state(F, scale * np.eye(n), 0, M).tobytes() == want
            W, sigma = evolve_rescaled(F, scale * np.eye(n), 0, M)
            assert (sigma > 0) == rescaled and np.ldexp(W, -sigma).tobytes() == want


def _sloped(lam):
    """Weight 1 + x on (0, 1), n = M = 64: at lam = 1e5 the period map lies
    below RESCALE_BELOW, its right column half binades below its left."""
    g, t = perevo.Grid1D(0.0, 1.0, 64), perevo.TimeGrid(1.0, 64)
    spec = perevo.make_problem(g, t, perevo.make_coefficients(g, t, 1.0),
                               perevo.BoundarySpec("dirichlet"),
                               perevo.make_weight(g, t, lambda x, s: 1.0 + x))
    return prepare(spec, lam)


def test_split_and_serial_rescaled_maps_agree_bit_for_bit(monkeypatch):
    F = _sloped(1e5)
    eye = np.eye(64)
    halves = [evolve_rescaled(F, eye[:, cols], 0, 64)[1] for cols in (slice(32), slice(32, 64))]
    assert 0 < halves[0] < halves[1]  # the two column blocks end with different exponents
    maps = []
    for workers in (1, 2):
        monkeypatch.setattr(evolve, "column_workers", lambda workers=workers: workers)
        with monkeypatch.context() as m:
            calls = hook_dgtsv(m)
            P = monodromy(F)
        assert sorted(nrhs for nrhs, _ in calls) == [64 // workers] * 64 * workers
        maps.append((P, spectral_radius(P)))
    (serial, rs), (split, rt) = maps
    assert serial.sigma == split.sigma == halves[0]
    assert serial.P.tobytes() == split.P.tobytes()
    assert (rs.mu, rs.r) == (rt.mu, rt.r)
    # every entry of the plain map is still normal here, and 2^sigma times it
    plain = evolve_state(F, eye, 0, 64)
    assert np.abs(plain).min() >= np.finfo(float).tiny
    assert np.ldexp(plain, serial.sigma).tobytes() == serial.P.tobytes()


def test_columns_that_underflow_when_rebased_are_counted(monkeypatch):
    # the left block starts at 2^-1020, so it rescales at once; rebased to
    # the right block's exponent 0, its columns fall below the normal range
    monkeypatch.setattr(evolve, "column_workers", lambda: 2)
    F = prepare(perevo.builtin_scenario("du_peng", n=64, M=64), 0.0)
    V = np.eye(64)
    V[:, :32] *= 2.0 ** -1020
    with pytest.warns(UserWarning, match="^32 column"):
        W, sigma = evolve_rescaled(F, V, 0, 64)
    assert sigma == 0
    assert W[:, 32:].tobytes() == evolve_state(F, np.eye(64)[:, 32:], 0, 64).tobytes()


def test_a_rescaled_trajectory_keeps_the_period_map_exponent():
    F = _sloped(1e5)
    P = monodromy(F)
    w = np.ones(64)
    states, sigmas = evolve.rescaled_trajectory(F, w)
    assert sigmas[0] == 0 and sigmas == sorted(sigmas) and sigmas[-1] > 0
    assert np.abs(states).max(axis=1).min() >= evolve.RESCALE_BELOW
    assert np.allclose(np.ldexp(states[-1], P.sigma - sigmas[-1]), P.P @ w, rtol=1e-12, atol=0)


def test_even_matrices_step_at_an_odd_leading_dimension(monkeypatch):
    # columns n numbers apart for a power-of-two n share L1 cache sets
    ldbs = []
    real = evolve._dgtsv

    def recording(*args):
        ldbs.append(args[6]._obj.value)
        return real(*args)

    monkeypatch.setattr(evolve, "column_workers", lambda: 1)
    for n, ldb in ((64, 65), (127, 127)):
        F = _split_spec(n)
        with monkeypatch.context() as m:
            m.setattr(evolve, "_dgtsv", recording)
            W = evolve_state(F, np.eye(n), 0, 4)
            evolve_state(F, np.ones(n), 0, 4)
        assert ldbs == [ldb] * 4 + [n] * 4
        assert W.shape == (n, n) and W.flags.f_contiguous
        ldbs.clear()
