import math
import warnings

import numpy as np
import pytest

import oracles
import perevo
from perevo import evolve, limitflow
from perevo.errors import InsufficientData, InvariantError, SingularStep, TrivialLimitComparison
from perevo.evolve import evolve_state, prepare
from perevo.limitflow import (classify_divergent, compare_to_limit, du_peng_pieces,
                              limit_monodromy, sweep, vanishing_rate)
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


def _on_slabs(spec, slabs):
    """spec with a weight that vanishes exactly on the slabs' free set."""
    free = oracles.slab_membership(slabs)
    weight = perevo.make_weight(spec.grid, spec.tgrid,
                                lambda x, t: np.where(free(x, t), 0.0, 1.0))
    return perevo.make_problem(spec.grid, spec.tgrid, spec.coeff, spec.bc, weight)


def test_whole_domain_piece_equals_zero_penalty_monodromy():
    # the zero weight vanishes on the whole cylinder
    spec = perevo.builtin_scenario("heat_baseline", n=24, M=48)
    lim = limit_monodromy(spec, [(0.0, spec.tgrid.T, "all")])
    assert np.array_equal(lim.Pinf, monodromy(prepare(spec, 0.0)).P)
    assert np.array_equal(limit_monodromy(spec).Pinf, lim.Pinf)


def test_declared_pieces_cross_check_the_free_set(dp_spec):
    T = dp_spec.tgrid.T
    # a level takes the first slab holding its time
    limit_monodromy(dp_spec, du_peng_pieces(dp_spec) + [(0.0, T, "empty")])
    # the first differing node, level by level: x = 20 h and 25 h
    with pytest.raises(InvariantError, match=r"node 20 \(x = 0\.408163\), level 128 .* blocked$"):
        limit_monodromy(dp_spec, du_peng_pieces(dp_spec, u_hi=0.4))
    with pytest.raises(InvariantError, match=r"node 25 \(x = 0\.510204\), level 128 .* free$"):
        limit_monodromy(dp_spec, du_peng_pieces(dp_spec, u_hi=0.6))
    with pytest.raises(InvariantError, match=r"node 25 .*, level 64 \(t = 0\.25\)"):
        limit_monodromy(dp_spec, du_peng_pieces(dp_spec, t_switch=0.25 * T))
    with pytest.raises(InvariantError, match="no declared slab covers level 128"):
        limit_monodromy(dp_spec, [(0.0, 0.5 * T, "all")])


def test_small_nonzero_oracle_has_a_finite_limit():
    # every entry of this Pinf is positive yet below 1e-20: only an exactly
    # zero map means no eigenpair
    slabs = [(0.0, 0.4, "all"), (0.4, 1.0, ((0.05, 0.35), (0.55, 0.9)))]
    spec = _on_slabs(perevo.builtin_scenario("du_peng", n=64, M=512), slabs)
    lim = limit_monodromy(spec, slabs)
    assert 0.0 < lim.Pinf.min() and lim.Pinf.max() < 1e-20
    assert lim.mu_inf == pytest.approx(45.577, abs=1e-3)
    (rec,) = sweep(spec, [1e6], eps=0.5, oracle=lim)
    assert lim.mu_inf - 0.05 <= rec.mu <= lim.mu_inf


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
    F = dp_oracle.F
    direct = evolve_state(F, v, 0, M)
    for split in (7, 128, 255):
        regrouped = evolve_state(F, evolve_state(F, v, 0, split), split, M)
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
    rep = compare_to_limit(dp_sweep, dp_oracle)
    assert rep.lambda_max == 1e5
    assert rep.mu_gap <= 0.05 * dp_oracle.mu_inf
    assert rep.eig_dist_max <= 0.05
    assert rep.op_gap_max <= 1e-10


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
    lim = limit_monodromy(spec, oracles.counterexample_pieces(spec))
    assert float(np.abs(lim.Pinf).max()) <= 1e-14
    assert lim.mu_inf == math.inf


def test_staircase_sweep_decay_and_divergence():
    spec = perevo.builtin_scenario("counterexample", n=30, M=300)
    lim = limit_monodromy(spec, oracles.counterexample_pieces(spec))
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
    slabs = [(0.0, 0.5, "all"), (0.5, 0.75, "empty"), (0.75, 1.0, "all")]
    lim = limit_monodromy(_on_slabs(spec, slabs), slabs)
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


def test_penalty_warnings_point_at_the_caller(dp_spec):
    with pytest.warns(UserWarning, match="did not converge") as caught:
        sweep(dp_spec, [0.0, 1.0], eps=0.5, max_iter=1)
    assert [w.filename for w in caught] == [__file__, __file__]


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
    # the oracle's map (n = 48 columns, too few to split) and samples step
    # each level once; the oracle's steps are those with a hard-wall mask, as
    # at a level where the weight vanishes everywhere penalty 0 has the
    # oracle's rows
    steps = []
    real = evolve._stepper

    def recording(F, b):
        step = real(F, b)
        if F.active is None:
            return step

        def recorded(j):
            steps.append((j, b.shape[1:]))
            step(j)
        return recorded

    monkeypatch.setattr(evolve, "_stepper", recording)
    lim = limit_monodromy(dp_spec, du_peng_pieces(dp_spec))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        records = sweep(dp_spec, [0.0, 1e5], eps=0.5, oracle=lim)
        sweep(dp_spec, [1e5], eps=0.5, oracle=lim)
    compare_to_limit(records, lim)
    compare_to_limit(records, lim)
    M, n = dp_spec.tgrid.M, dp_spec.grid.n
    # M for Pinf, M for the eigenfunction samples
    assert steps == [(j, (n,)) for j in range(M)] + [(j, ()) for j in range(M)]


@pytest.mark.parametrize("case", ["du_peng", "two_intervals", "counterexample"])
def test_oracle_matches_dense_restricted_solves(case, dp_spec):
    spec = dp_spec
    if case == "du_peng":
        slabs = du_peng_pieces(spec)
    elif case == "two_intervals":
        # walls on nodes: the half-open rule keeps xs[2] and xs[26], drops xs[21]
        xs = spec.grid.interior()
        slabs = [(0.0, 0.75, "all"), (0.75, 1.0, ((xs[2], xs[21]), (xs[26], xs[46])))]
        spec = _on_slabs(spec, slabs)
    else:
        spec = perevo.builtin_scenario("counterexample")
        slabs = oracles.counterexample_pieces(spec)
    lim = limit_monodromy(spec, slabs)
    ref = oracles.dense_hard_wall_period_map(spec, oracles.slab_membership(slabs))
    if case == "counterexample":
        assert not ref.any() and not lim.Pinf.any() and lim.mu_inf == math.inf
    else:
        assert np.abs(lim.Pinf - ref).max() <= 1e-12 * np.abs(ref).max()
        assert math.isfinite(lim.mu_inf)


def test_oracle_samples_are_one_read_only_array(dp_oracle):
    samples = dp_oracle.eigenfunction_samples()
    assert samples is dp_oracle.eigenfunction_samples()
    assert not samples.flags.writeable
    assert samples.shape == (dp_oracle.spec.tgrid.M + 1, dp_oracle.spec.grid.n)


def test_eig_distances_match_row_loop(dp_sweep, dp_oracle):
    rng = np.random.default_rng(11)
    a, b = rng.standard_normal((513, 64)), rng.standard_normal((513, 64))
    a[5] = 0.0
    b[9] = -np.abs(b[9])  # negative peak: the row is flipped
    h = 1.0 / 65
    for x, y in ((a, b), (np.asfortranarray(a), b)):
        assert limitflow._eig_distances(x, y, h).tobytes() == \
            oracles.eig_distances_loop(a, b, h).tobytes()
    u, v = dp_sweep[-1].eigenfunction, dp_oracle.eigenfunction_samples()
    h = dp_oracle.spec.grid.h
    assert limitflow._eig_distances(u, v, h).tobytes() == \
        oracles.eig_distances_loop(u, v, h).tobytes()
