import math
import warnings

import numpy as np
import pytest

import oracles
import perevo
from perevo import limitflow
from perevo.errors import (InsufficientData, InvariantError, MisalignedPiece, SingularStep,
                           TrivialLimitComparison)
from perevo.evolve import prepare
from perevo.limitflow import (CylindricalPieceSpec, classify_divergent, compare_to_limit,
                              counterexample_pieces, du_peng_pieces, limit_monodromy,
                              sweep, vanishing_rate)
from perevo.spectral import monodromy


@pytest.fixture(scope="module")
def dp_spec():
    return perevo.builtin_scenario("du_peng", n=48, M=256)


@pytest.fixture(scope="module")
def dp_oracle(dp_spec):
    return limit_monodromy(dp_spec, du_peng_pieces(dp_spec))


@pytest.fixture(scope="module")
def dp_sweep(dp_spec, dp_oracle):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return sweep(dp_spec, [0.0, 1.0, 10.0, 100.0, 1e3, 1e4, 1e5], eps=0.5,
                     oracle=dp_oracle)


def test_piece_partition_validation():
    with pytest.raises(InvariantError):
        CylindricalPieceSpec(((0.1, 1.0, "all"),), 1.0)
    with pytest.raises(InvariantError):
        CylindricalPieceSpec(((0.0, 0.4, "all"), (0.5, 1.0, "all")), 1.0)
    with pytest.raises(InvariantError):
        CylindricalPieceSpec(((0.0, 0.5, ((0.7, 0.2),)), (0.5, 1.0, "all")), 1.0)
    ok = CylindricalPieceSpec(((0.0, 0.5, "all"), (0.5, 1.0, "empty")), 1.0)
    assert ok.slab_index(0.0) == 0
    assert ok.slab_index(0.5) == 1  # half-open lookup: the switch belongs to the later slab


def test_whole_domain_piece_equals_zero_penalty_monodromy(dp_spec):
    lim = limit_monodromy(dp_spec, [(0.0, 1.0, "all")])
    P0 = monodromy(prepare(dp_spec, 0.0)).P
    assert np.array_equal(lim.Pinf, P0)


def test_misaligned_wall_strict_vs_warn(dp_spec):
    pieces = du_peng_pieces(dp_spec)  # wall at 0.5 sits between nodes for n=48
    with pytest.raises(MisalignedPiece):
        limit_monodromy(dp_spec, pieces, strict=True)
    with pytest.warns(UserWarning, match="wall position"):
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            limit_monodromy(dp_spec, pieces)


def test_du_peng_oracle_finite(dp_oracle):
    assert math.isfinite(dp_oracle.mu_inf)
    assert dp_oracle.r_inf > 0
    assert dp_oracle.Pinf.min() >= 0.0
    # the eigenvector is positive on the subinterval; outside it only the
    # final wrap step (a free step, the weight vanishes at t = 0) leaves a
    # geometrically decaying one-step diffusion tail
    w = dp_oracle.w_inf
    inner = dp_oracle.spec.grid.interior() < 0.5
    assert w[inner].min() > 0
    tail = w[~inner]
    assert tail.max() <= 0.3 * w[inner].max()
    assert np.all(np.diff(tail) < 0)  # strictly decaying away from the wall


def test_du_peng_oracle_value_matches_wall_eigenvalue(dp_spec, dp_oracle):
    # crude analytic anchor: the averaged slowest decay over the two slabs;
    # the discrete walls sit at the first penalized node
    g, tg = dp_spec.grid, dp_spec.tgrid
    lam_full = oracles.mode_eigenvalue(g, 1)
    n_free = int((g.interior() < 0.5).sum())
    wall_grid = perevo.Grid1D(g.x_lo, g.x_lo + (n_free + 1) * g.h, n_free)
    lam_sub = oracles.mode_eigenvalue(wall_grid, 1)
    crude = 0.5 * (lam_full + lam_sub)
    assert dp_oracle.mu_inf == pytest.approx(crude, rel=0.15)


def test_limit_evolution_regrouping_bit_identical(dp_oracle, dp_spec):
    v = np.sin(np.pi * dp_spec.grid.interior())
    M = dp_spec.tgrid.M
    direct = dp_oracle.evolve(v, 0, M)
    for split in (7, 128, 255):
        regrouped = dp_oracle.evolve(dp_oracle.evolve(v, 0, split), split, M)
        assert np.array_equal(direct, regrouped)


def test_sweep_monotone_and_dominance(dp_sweep, dp_oracle):
    mus = [r.mu for r in dp_sweep if r.valid]
    assert all(m2 >= m1 - 1e-10 for m1, m2 in zip(mus, mus[1:]))
    for r1, r2 in zip(dp_sweep, dp_sweep[1:]):
        assert float((r2.monodromy - r1.monodromy).max()) <= 1e-12
    for r in dp_sweep:
        assert float((dp_oracle.Pinf - r.monodromy).max()) <= 1e-12
        assert r.mu <= dp_oracle.mu_inf + 1e-10


def test_sweep_masses_decrease(dp_sweep):
    masses = [r.s_eps_mass for r in dp_sweep]
    assert masses[0] > masses[-1]
    assert masses[-1] < 1e-4
    # distances to the limit eigenfunction shrink along the sweep
    dists = [r.dist_to_limit_L2 for r in dp_sweep]
    assert dists[-1] < dists[0]


def test_compare_to_limit(dp_sweep, dp_oracle):
    rep = compare_to_limit(dp_sweep, dp_oracle, q=2.0)
    assert rep.lambda_max == 1e5
    assert rep.mu_gap <= 0.05 * dp_oracle.mu_inf
    assert rep.eig_dist_max <= 0.05
    assert rep.op_gap_max <= 1e-10
    # coarser norms work too
    rep1 = compare_to_limit(dp_sweep, dp_oracle, q=1.0)
    rep4 = compare_to_limit(dp_sweep, dp_oracle, q=4.0)
    assert rep1.eig_dist_max <= 0.1 and rep4.eig_dist_max <= 0.1


def test_vanishing_rate_du_peng(dp_sweep):
    rate = vanishing_rate(dp_sweep)
    assert rate.status == "ok"
    assert rate.slope <= -0.8


def test_zero_weight_sweep_constant():
    spec = perevo.builtin_scenario("heat_baseline", n=24, M=48)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        records = sweep(spec, [0.0, 1.0, 100.0], eps=0.5)
    mus = [r.mu for r in records]
    assert max(mus) - min(mus) <= 1e-12
    assert all(math.isnan(r.s_eps_mass) for r in records)
    rate = vanishing_rate(records)
    assert rate.status == "not_applicable"


def test_everywhere_positive_weight_flagged():
    g = perevo.Grid1D(0.0, 1.0, 16)
    t = perevo.TimeGrid(1.0, 32)
    spec = perevo.make_problem(g, t, perevo.make_coefficients(g, t, 1.0),
                               perevo.BoundarySpec("dirichlet"),
                               perevo.make_weight(g, t, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        records = sweep(spec, [10.0, 100.0, 1e3, 1e4], eps=0.5)
    # the eigenfunction lives entirely on the penalized region
    assert all(r.s_eps_mass == pytest.approx(1.0, abs=1e-10) for r in records)
    mask = perevo.build_mask(spec.weight, g, t)
    rate = vanishing_rate(records, mask)
    assert rate.status == "assumption_violated"
    assert abs(rate.slope) <= 0.05


def test_vanishing_rate_insufficient_data(dp_sweep):
    with pytest.raises(InsufficientData):
        vanishing_rate(dp_sweep[:3])  # only penalties 0, 1, 10: one usable


def test_staircase_oracle_is_zero():
    spec = perevo.builtin_scenario("counterexample")
    lim = limit_monodromy(spec, counterexample_pieces(spec))
    assert float(np.abs(lim.Pinf).max()) <= 1e-14
    assert lim.mu_inf == math.inf


def test_staircase_sweep_decay_and_divergence():
    spec = perevo.builtin_scenario("counterexample", n=30, M=300)
    lim = limit_monodromy(spec, counterexample_pieces(spec))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        records = sweep(spec, [0.0, 1.0, 10.0, 100.0, 1e3, 1e4, 1e5], eps=0.5,
                        oracle=lim)
    pmax = [float(np.abs(r.monodromy).max()) for r in records]
    assert all(b <= a + 1e-12 for a, b in zip(pmax, pmax[1:]))
    assert pmax[-1] <= 1e-3
    assert classify_divergent(records)
    with pytest.raises(TrivialLimitComparison) as err:
        compare_to_limit(records, lim)
    assert len(err.value.decay) == len(records)
    assert err.value.decay[-1][1] <= 1e-3


def test_empty_slab_kills_everything():
    spec = perevo.builtin_scenario("heat_baseline", x_lo=0.0, x_hi=1.0, n=16, M=32)
    lim = limit_monodromy(spec, [(0.0, 0.5, "all"), (0.5, 0.75, "empty"),
                                 (0.75, 1.0, "all")])
    assert np.abs(lim.Pinf).max() == 0.0
    assert lim.mu_inf == math.inf


def _two_node_spec():
    # at penalty 0 the step matrix I + dt A is exactly singular: its diagonal
    # 1 + dt (18 - 17) equals the size dt * 9 of its off-diagonals
    grid = perevo.Grid1D(0.0, 1.0, 2)
    tgrid = perevo.TimeGrid(1.0, 8)
    coeff = perevo.make_coefficients(grid, tgrid, 1.0, c0=-17.0)
    return perevo.make_problem(grid, tgrid, coeff, perevo.BoundarySpec("dirichlet"),
                               perevo.make_weight(grid, tgrid, 1.0))


def test_singular_step_stays_in_its_penalty():
    spec = _two_node_spec()
    with pytest.raises(SingularStep):
        prepare(spec, 0.0)
    (alone,) = sweep(spec, [1.0], eps=0.5)
    assert alone.valid and alone.mu == pytest.approx(-16.64, abs=0.01)
    with pytest.warns(UserWarning, match="penalty 0"):
        bad, good = sweep(spec, [0.0, 1.0], eps=0.5)
    assert not bad.valid and math.isnan(bad.mu)
    assert good.valid and good.mu == alone.mu and good.r == alone.r


def test_no_convergence_row_keeps_estimates(dp_spec):
    with pytest.warns(UserWarning, match="did not converge"):
        (rec,) = sweep(dp_spec, [0.0], eps=0.5, max_iter=1)
    assert not rec.valid and math.isnan(rec.mu)
    assert rec.r > 0 and rec.residual > 0


def test_sweep_builds_one_period_map_per_penalty(dp_spec, monkeypatch):
    calls = []

    def counting(F):
        calls.append(F.lam)
        return monodromy(F)

    monkeypatch.setattr(limitflow, "monodromy", counting)
    lams = [0.0, 10.0, 1e3]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sweep(dp_spec, lams, eps=0.5)
    assert calls == lams


def test_sweep_input_validation(dp_spec):
    with pytest.raises(InvariantError):
        sweep(dp_spec, [1.0, 0.5], eps=0.5)
    with pytest.raises(InvariantError):
        sweep(dp_spec, [0.0, 1.0], eps=-1.0)


def test_oracle_steps_each_level_once_for_map_and_samples(dp_spec, monkeypatch):
    calls = []
    real = limitflow.LimitMonodromy._step

    def counting(self, j, X):
        calls.append(j)
        return real(self, j, X)

    monkeypatch.setattr(limitflow.LimitMonodromy, "_step", counting)
    lim = limit_monodromy(dp_spec, du_peng_pieces(dp_spec))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        records = sweep(dp_spec, [0.0, 1e5], eps=0.5, oracle=lim)
        sweep(dp_spec, [1e5], eps=0.5, oracle=lim)
    compare_to_limit(records, lim, q=2.0)
    compare_to_limit(records, lim, q=1.0)
    M = dp_spec.tgrid.M
    assert calls == list(range(M)) * 2  # M for Pinf, M for the eigenfunction samples


def test_oracle_samples_are_one_read_only_array(dp_oracle):
    samples = dp_oracle.eigenfunction_samples()
    assert samples is dp_oracle.eigenfunction_samples()
    assert not samples.flags.writeable
    assert samples.shape == (dp_oracle.spec.tgrid.M + 1, dp_oracle.spec.grid.n)


@pytest.mark.parametrize("q", [1.0, 2.0, 3.0, math.inf])
def test_eig_distances_match_row_loop(q, dp_sweep, dp_oracle):
    rng = np.random.default_rng(11)
    a, b = rng.standard_normal((513, 64)), rng.standard_normal((513, 64))
    a[5] = 0.0
    b[9] = -np.abs(b[9])  # negative peak: the row is flipped
    h = 1.0 / 65
    for x, y in ((a, b), (np.asfortranarray(a), b)):
        assert limitflow._eig_distances(x, y, h, q).tobytes() == \
            oracles.eig_distances_loop(a, b, h, q).tobytes()
    u, v = dp_sweep[-1].eigenfunction, dp_oracle.eigenfunction_samples()
    h = dp_oracle.spec.grid.h
    assert limitflow._eig_distances(u, v, h, q).tobytes() == \
        oracles.eig_distances_loop(u, v, h, q).tobytes()
