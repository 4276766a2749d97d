import math
import sys
import threading

import numpy as np
import pytest

import oracles
import perevo
from perevo import evolve
from perevo.errors import InsufficientData, LevelMismatch, LevelOrder
from perevo.evolve import evolve_state, prepare
from perevo.kernel import (check_monotone_in_lambda, envelope_violation, fit_gaussian,
                           kernel_matrix)


@pytest.fixture(scope="module")
def fine_heat():
    # midpoint node sits exactly at the center; gaps used below are exact levels
    return perevo.builtin_scenario("heat_baseline", n=127, M=800)


@pytest.fixture(scope="module")
def fine_F(fine_heat):
    return prepare(fine_heat, 0.0)


def test_level_order_required(fine_F):
    with pytest.raises(LevelOrder):
        kernel_matrix(fine_F, 5, 5)


def test_impulse_consistency(fine_F, fine_heat):
    K = kernel_matrix(fine_F, 0, 40)
    rng = np.random.default_rng(0)
    u = rng.standard_normal(fine_heat.grid.n)
    direct = evolve_state(fine_F, u, 0, 40)
    via_kernel = K.h * (K.entries @ u)
    assert np.abs(direct - via_kernel).max() <= 1e-12 * np.abs(direct).max()


def test_positive_entries_at_zero_penalty(fine_F):
    K = kernel_matrix(fine_F, 0, 40)
    assert K.entries.min() > 0.0


def test_peak_matches_image_series(fine_F, fine_heat):
    K = kernel_matrix(fine_F, 0, 40)  # tau = 0.05
    mid = fine_heat.grid.n // 2
    x = fine_heat.grid.interior()[mid]
    ref = oracles.interval_heat_kernel(x, x, 0.05, 0.0, math.pi)
    assert abs(K.entries[mid, mid] - ref) <= 0.03 * ref


def test_entries_match_image_series_bulk(fine_F, fine_heat):
    K = kernel_matrix(fine_F, 0, 160)  # tau = 0.2
    xs = fine_heat.grid.interior()
    for i in (20, 63, 100):
        for j in (30, 63, 90):
            ref = oracles.interval_heat_kernel(xs[i], xs[j], 0.2, 0.0, math.pi)
            assert K.entries[i, j] == pytest.approx(ref, rel=0.02, abs=1e-9)


def test_chapman_kolmogorov(fine_F):
    K_ts = kernel_matrix(fine_F, 0, 80)
    K_tm = kernel_matrix(fine_F, 32, 80)
    K_ms = kernel_matrix(fine_F, 0, 32)
    composed = K_tm.entries @ (fine_F.spec.grid.h * K_ms.entries)
    assert np.abs(composed - K_ts.entries).max() <= 1e-10 * K_ts.entries.max()


def test_symmetry_time_independent(fine_F):
    K = kernel_matrix(fine_F, 0, 40)
    assert np.abs(K.entries - K.entries.T).max() <= 1e-10 * K.entries.max()


def test_monotone_in_penalty_pairwise(du_peng_small):
    lams = [0.0, 1.0, 10.0, 100.0, 1e3, 1e4]
    Ks = [kernel_matrix(prepare(du_peng_small, lam), 0, du_peng_small.tgrid.M)
          for lam in lams]
    scale = Ks[0].entries.max()
    for K1, K2 in zip(Ks, Ks[1:]):
        assert check_monotone_in_lambda(K1, K2) <= 1e-12 * scale
    assert check_monotone_in_lambda(Ks[0], Ks[0]) == 0.0


def test_monotone_level_mismatch(du_peng_small):
    F = prepare(du_peng_small, 0.0)
    K1 = kernel_matrix(F, 0, 8)
    K2 = kernel_matrix(F, 0, 16)
    with pytest.raises(LevelMismatch):
        check_monotone_in_lambda(K1, K2)


def test_penalty_annihilates_blocked_columns():
    # the worst leak sits at the wall node and scales like 1/penalty: at 1e6
    # it is ~4e-4 of the peak on this grid, and ~4e-7 by 1e9
    spec = perevo.builtin_scenario("du_peng", n=64, M=512)
    s_level = 257  # one step past the switch
    xs = spec.grid.interior()
    blocked = xs >= 0.5
    ratios = {}
    for lam in (1e6, 1e7, 1e9):
        K = kernel_matrix(prepare(spec, lam), s_level, spec.tgrid.M)
        ratios[lam] = K.entries[:, blocked].max() / K.entries.max()
    assert ratios[1e9] <= 1e-6
    assert ratios[1e7] == pytest.approx(0.1 * ratios[1e6], rel=0.05)


def test_fit_gaussian_constants(fine_F):
    kernels = [kernel_matrix(fine_F, 0, g) for g in (80, 160, 320, 640)]
    fit = fit_gaussian(kernels)
    assert 0.20 <= fit.cconst <= 0.25
    assert fit.Mconst >= 1.0
    assert fit.max_violation <= 0.0
    # decay rate of the slowest mode is about -1 on this domain
    assert -1.3 <= fit.omega <= -0.7


def test_fit_gaussian_requires_spread(fine_F):
    with pytest.raises(InsufficientData):
        fit_gaussian([kernel_matrix(fine_F, 0, g) for g in (80, 120, 160)])
    with pytest.raises(InsufficientData):
        fit_gaussian([kernel_matrix(fine_F, 0, 80)])


def test_envelope_dominates_penalized_kernels(fine_heat, fine_F):
    kernels = [kernel_matrix(fine_F, 0, g) for g in (80, 160, 320, 640)]
    fit = fit_gaussian(kernels)
    F_pen = prepare(fine_heat, 10.0)  # weight is zero; kernel unchanged
    K_pen = kernel_matrix(F_pen, 0, 160)
    assert envelope_violation(fit, K_pen) <= 0.0


def test_diagonal_decay_uniformly_bounded(fine_F, fine_heat):
    mid = fine_heat.grid.n // 2
    vals = []
    for g in (8, 16, 40, 80, 200, 400):
        K = kernel_matrix(fine_F, 0, g)
        vals.append(K.entries[mid, mid] * math.sqrt(K.tau))
    assert max(vals) <= 0.32  # free-space constant is (4 pi)^(-1/2) ~ 0.282


# kernel ladders resume from the last evolved identity

def _fresh(spec, lam, s_level, t_level):
    return kernel_matrix(prepare(spec, lam), s_level, t_level)


def _ladder_spec(name, n):
    spec = perevo.builtin_scenario(name, n=n, M=96)
    return spec, prepare(spec, 10.0)


def _counting_solves(monkeypatch):
    """Count the steps of kernels too narrow to split (heat_small's n = 32):
    they step on one thread, by dgtsv; a dgttrs call fails the test."""
    calls = [0]
    real = evolve.dgtsv

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    def unexpected(*args, **kwargs):
        raise AssertionError("a narrow kernel stepped with the factors")
    monkeypatch.setattr(evolve, "dgtsv", counted)
    monkeypatch.setattr(evolve, "dgttrs", unexpected)
    return calls


# the "1.0" in the case ids is the theta of the fully implicit step, kept
# from when the cases also ran theta = 1/2 so their names stay stable
@pytest.mark.parametrize("name, n", [("heat_baseline", 127), ("du_peng", 64)],
                         ids=["heat_baseline-127-1.0", "du_peng-64-1.0"])
def test_ascending_ladder_equals_fresh_kernels(name, n, monkeypatch):
    # two column workers cut n = 127 into two blocks; n = 64 stays one block
    monkeypatch.setattr(evolve, "column_workers", lambda: 2)
    spec, F = _ladder_spec(name, n)
    for s_level, gaps in ((0, (8, 16, 32, 96)), (5, (3, 11, 12, 40, 91))):
        for gap in gaps:
            K = kernel_matrix(F, s_level, s_level + gap)
            want = _fresh(spec, 10.0, s_level, s_level + gap)
            assert K.entries.tobytes(order="A") == want.entries.tobytes(order="A")
            assert K.entries.flags.f_contiguous and want.entries.flags.f_contiguous
            assert (K.s_level, K.t_level) == (s_level, s_level + gap)


def test_ladder_steps_each_level_once(heat_small, monkeypatch):
    F = prepare(heat_small, 0.0)
    calls = _counting_solves(monkeypatch)
    for gap in (8, 16, 32):
        kernel_matrix(F, 0, gap)
    assert calls[0] == 32
    kernel_matrix(F, 0, 32)  # the kept end level itself needs no step
    assert calls[0] == 32


def test_new_start_or_lower_end_restarts(heat_small, monkeypatch):
    F = prepare(heat_small, 1.0)
    kernel_matrix(F, 0, 32)
    calls = _counting_solves(monkeypatch)
    lower = kernel_matrix(F, 0, 16)
    assert calls[0] == 16
    moved = kernel_matrix(F, 4, 20)
    assert calls[0] == 32
    monkeypatch.undo()
    assert np.array_equal(lower.entries, _fresh(heat_small, 1.0, 0, 16).entries)
    assert np.array_equal(moved.entries, _fresh(heat_small, 1.0, 4, 20).entries)
    M = heat_small.tgrid.M
    with pytest.raises(LevelOrder, match=f"levels 4..{M + 1} outside"):
        kernel_matrix(F, 4, M + 1)


def test_returned_entries_do_not_reach_the_kept_state(heat_small):
    F = prepare(heat_small, 0.0)
    kernel_matrix(F, 0, 8).entries[:] = -1.0
    again = kernel_matrix(F, 0, 8)
    again.entries[:] = -2.0
    resumed = kernel_matrix(F, 0, 16)
    assert np.array_equal(resumed.entries, _fresh(heat_small, 0.0, 0, 16).entries)
    assert not F._kernel_slot[0][2].flags.writeable
    assert "_kernel_slot" not in repr(F)


def test_concurrent_ladders_on_one_factorization(monkeypatch):
    monkeypatch.setattr(evolve, "column_workers", lambda: 2)
    spec, F = _ladder_spec("heat_baseline", 127)
    orders = [(4, 8, 16, 32), (32, 8, 24), (16, 4, 40, 8), (8, 8, 48, 12)]
    want = {g: _fresh(spec, 10.0, 0, g).entries for g in {g for o in orders for g in o}}
    got = [[] for _ in orders]

    def caller(i):
        for g in orders[i]:
            got[i].append(kernel_matrix(F, 0, g).entries)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller, args=(i,)) for i in range(len(orders))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for order, entries in zip(orders, got):
        assert len(entries) == len(order)
        assert all(np.array_equal(e, want[g]) for g, e in zip(order, entries))
