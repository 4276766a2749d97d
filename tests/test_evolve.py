import math
import os
import signal
import sys
import threading
import time
import warnings

import numpy as np
import pytest

import oracles
import perevo
from perevo import evolve
from perevo.errors import InvariantError, LevelOrder
from perevo.evolve import (ForcingField, energy_report, evolve_state, mild_solution,
                           prepare, trajectory_rows)
from perevo.spectral import monodromy


def test_prepare_certificate_baseline(heat_small):
    F = prepare(heat_small, 0.0)
    assert F.positivity and F.peclet_ok


def test_prepare_certificate_large_penalty(heat_small):
    F = prepare(heat_small, 1e6)
    assert F.positivity


def test_prepare_warns_on_peclet_violation():
    grid = perevo.Grid1D(0.0, 1.0, 8)
    tgrid = perevo.TimeGrid(1.0, 8)
    coeff = perevo.make_coefficients(grid, tgrid, 1.0, b=1000.0)
    spec = perevo.make_problem(grid, tgrid, coeff, perevo.BoundarySpec("dirichlet"),
                               perevo.make_weight(grid, tgrid, 0.0))
    with pytest.warns(UserWarning, match="Peclet"):
        F = prepare(spec, 0.0)
    assert not F.positivity


def test_prepare_factors_each_step_once_and_solves_nothing(heat_small, monkeypatch):
    counts = {"dgttrf": 0, "dgttrs": 0}

    def counting(name):
        real = getattr(evolve, name)

        def wrapped(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return wrapped

    for name in counts:
        monkeypatch.setattr(evolve, name, counting(name))
    F = prepare(heat_small, 1.0)
    assert counts == {"dgttrf": heat_small.tgrid.M, "dgttrs": 0}
    evolve_state(F, np.ones(heat_small.grid.n), 0, 3)
    assert counts == {"dgttrf": heat_small.tgrid.M, "dgttrs": 3}


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
        states = [F.step_once(j, s) for F, s in zip(Fs, states)]
        for s1, s2 in zip(states, states[1:]):
            assert float((s2 - s1).max()) <= 1e-12


def test_mild_solution_against_dense_spacetime(heat_unit):
    F = prepare(heat_unit, 0.0)
    n = heat_unit.grid.n
    f = ForcingField.constant(1.0, heat_unit.grid, heat_unit.tgrid)
    traj = mild_solution(F, np.zeros(n), f)
    ref = oracles.dense_theta_trajectory(F, np.zeros(n), f.values)
    worst = max(np.abs(ref[j] - traj.states[j]).max() for j in range(len(ref)))
    assert worst <= 1e-12


def test_forced_theta_half_against_dense_steps():
    # theta = 1/2 with a time-dependent weight and forcing: step j solves
    # (I + dt/2 B_{j+1}) u^{j+1} = (I - dt/2 B_j) u^j + dt (f_j + f_{j+1})/2,
    # with B_j = A_j + lam m_j from the entry-by-entry dense matrices
    g, tg = perevo.Grid1D(0.0, 1.0, 9), perevo.TimeGrid(1.0, 16)
    coeff = perevo.make_coefficients(g, tg, 1.0, a=0.5)
    w = perevo.make_weight(g, tg, lambda x, t: x * (1.0 + np.sin(2 * math.pi * t)))
    spec = perevo.make_problem(g, tg, coeff, perevo.BoundarySpec("dirichlet"), w, theta=0.5)
    lam, dt, eye = 3.0, tg.dt, np.eye(g.n)
    f = ForcingField.from_function(lambda x, t: np.cos(3 * x) * (1.0 + t * t), g, tg)
    u0 = np.sin(math.pi * g.interior())
    with pytest.warns(UserWarning, match="mesh-ratio"):  # dt above the positivity bound
        F = prepare(spec, lam)
    traj = mild_solution(F, u0, f)
    B = [(oracles.dense_step_matrix(spec, lam, j) - eye) / dt for j in range(tg.M + 1)]
    u = u0
    for j in range(tg.M):
        rhs = (eye - 0.5 * dt * B[j]) @ u + dt * 0.5 * (f.values[1:-1, j] + f.values[1:-1, j + 1])
        u = np.linalg.solve(eye + 0.5 * dt * B[j + 1], rhs)
        assert np.allclose(traj.states[j + 1], u, rtol=1e-12, atol=1e-12)


def test_mild_solution_unforced_matches_evolve(heat_unit):
    F = prepare(heat_unit, 0.0)
    rng = np.random.default_rng(4)
    u0 = rng.standard_normal(heat_unit.grid.n)
    traj = mild_solution(F, u0, None)
    for j in (0, 10, heat_unit.tgrid.M):
        assert np.array_equal(traj.at_level(j), evolve_state(F, u0, 0, j))


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
    assert np.abs(traj.states[-1] - ref).max() <= 1e-10 * max(np.abs(ref).max(), 1e-30)


def test_forced_positive_trajectory(du_peng_small):
    F = prepare(du_peng_small, 10.0)
    g, tg = du_peng_small.grid, du_peng_small.tgrid
    f = ForcingField.constant(0.5, g, tg)
    traj = mild_solution(F, np.ones(g.n), f)
    assert traj.states.min() >= 0.0


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


def test_crank_nicolson_second_order():
    # theta = 1/2 converges at second order in dt against the spatially
    # discrete exact mode decay
    errs = []
    for M in (32, 64, 128):
        spec = perevo.builtin_scenario("heat_baseline", n=16, M=M, theta=0.5)
        F = prepare(spec, 0.0)
        mode = oracles.sine_mode(spec.grid, 1)
        lam1 = oracles.mode_eigenvalue(spec.grid, 1)
        out = evolve_state(F, mode, 0, M)
        exact = math.exp(-lam1 * spec.tgrid.T) * mode
        errs.append(np.abs(out - exact).max())
    rate1 = math.log2(errs[0] / errs[1])
    rate2 = math.log2(errs[1] / errs[2])
    assert 1.8 <= rate1 <= 2.2 and 1.8 <= rate2 <= 2.2


def test_trajectory_rows_long_format(heat_small):
    F = prepare(heat_small, 0.0)
    traj = mild_solution(F, np.ones(heat_small.grid.n), None)
    rows = list(trajectory_rows(traj, heat_small))
    n, M = heat_small.grid.n, heat_small.tgrid.M
    assert len(rows) == n * (M + 1)
    t0, x0, u0 = rows[0]
    assert t0 == 0.0 and x0 == pytest.approx(heat_small.grid.h) and u0 == 1.0


def _split_spec(n, theta):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # theta = 1/2 fails the mesh-ratio certificate here
        return prepare(perevo.builtin_scenario("du_peng", n=n, M=96, theta=theta), 10.0)


@pytest.mark.parametrize("levels", [(0, 96), (7, 40)], ids=["full", "partial"])
@pytest.mark.parametrize("theta", [1.0, 0.5])
@pytest.mark.parametrize("n", [64, 127, 144])
def test_column_blocks_match_single_columns(n, theta, levels, monkeypatch):
    # with three workers 64 columns stay one block, 127 make two uneven
    # blocks and 144 three
    monkeypatch.setattr(evolve, "column_workers", lambda: 3)
    F = _split_spec(n, theta)
    V = np.random.default_rng(n).random((n, n))
    W = evolve_state(F, V, *levels)
    single = np.column_stack([evolve_state(F, V[:, c], *levels) for c in range(n)])
    assert np.array_equal(W, single)
    assert W.flags.f_contiguous


def test_one_worker_gives_the_same_bytes(monkeypatch):
    F = _split_spec(127, 1.0)
    V = np.random.default_rng(3).random((127, 127))
    default = evolve_state(F, V, 0, 96)
    monkeypatch.setattr(evolve, "column_workers", lambda: 1)
    serial = evolve_state(F, V, 0, 96)
    assert default.tobytes(order="A") == serial.tobytes(order="A")
    assert default.flags.f_contiguous and serial.flags.f_contiguous


def test_concurrent_callers_share_the_pool(monkeypatch):
    # more column workers and callers than cores, with frequent thread switches
    monkeypatch.setattr(evolve, "column_workers", lambda: 4)
    F = _split_spec(127, 1.0)
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


def test_forked_child_finishes_a_monodromy(monkeypatch):
    monkeypatch.setattr(evolve, "column_workers", lambda: 2)
    F = _split_spec(96, 1.0)
    want = monodromy(F).P  # the parent's pool now has a worker thread
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork of a threaded process
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if np.array_equal(monodromy(F).P, want) else 3
        finally:
            os._exit(code)
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
