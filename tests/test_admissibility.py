import numpy as np
import pytest

import oracles
import perevo
from perevo.admissibility import (build_mask, check_assumption, check_regular_support,
                                  components, mask_text, slices, validate_witness)


def _mask(mfun, n=10, M=12, T=1.0):
    g = perevo.Grid1D(0.0, 1.0, n)
    t = perevo.TimeGrid(T, M)
    return build_mask(perevo.make_weight(g, t, mfun), g, t), g, t


def test_zero_weight_all_free():
    mask, g, t = _mask(0.0)
    assert mask.free[1:-1, :].all()
    assert not mask.free[0, :].any() and not mask.free[-1, :].any()
    assert np.array_equal(slices(mask, 0), np.arange(1, g.n + 1))
    cnt, _ = components(mask)
    assert cnt == 1


def test_full_weight_nothing_free():
    mask, _, _ = _mask(1.0)
    assert not mask.free.any()
    rep = check_assumption(mask)
    assert not rep.slices_nonempty and not rep.assumption_holds
    assert rep.failing_pair is None


def test_regular_support_cases():
    box, _, _ = _mask(lambda x, t: np.where((x >= 0.3) & (x < 0.8)
                                            & (t >= 0.25) & (t < 0.75), 1.0, 0.0))
    assert check_regular_support(box)

    single, _, _ = _mask(lambda x, t: np.where((np.abs(x - 5 / 11) < 1e-9)
                                               & (np.abs(t - 0.5) < 1e-9), 1.0, 0.0))
    assert int(single.supp.sum()) == 1
    assert not check_regular_support(single)

    empty, _, _ = _mask(0.0)
    assert check_regular_support(empty)


def test_du_peng_mask_and_assumption():
    spec = perevo.builtin_scenario("du_peng")
    mask = build_mask(spec.weight, spec.grid, spec.tgrid)
    rep = check_assumption(mask)
    assert rep.regular_support and rep.slices_nonempty
    assert rep.components == 1
    assert rep.assumption_holds and rep.failing_pair is None
    assert validate_witness(mask, rep.witness, rep.witness.cells[0], rep.witness.cells[-1])
    # witness ends at the last free cell of the final level
    last = slices(mask, spec.tgrid.M)
    assert rep.witness.cells[-1] == (int(last[-1]), spec.tgrid.M)
    # late slices are the subinterval
    late = slices(mask, 400)
    assert (spec.grid.nodes()[late] < 0.5).all()


def test_staircase_mask_fails_with_validated_pair():
    spec = perevo.builtin_scenario("counterexample")
    mask = build_mask(spec.weight, spec.grid, spec.tgrid)
    rep = check_assumption(mask)
    assert rep.regular_support and rep.slices_nonempty
    assert rep.components == 1  # connected, yet not forward-reachable
    assert not rep.assumption_holds
    (y, j0), (x, j) = rep.failing_pair
    assert j0 == 0 and mask.free[y, 0] and mask.free[x, j]
    # independent queue-based flood fill confirms the pair is unreachable
    seen = oracles.flood_reachable(mask, (y, 0))
    assert not seen[x, j]


def test_witness_against_independent_reachability():
    spec = perevo.builtin_scenario("du_peng", n=24, M=48)
    mask = build_mask(spec.weight, spec.grid, spec.tgrid)
    rep = check_assumption(mask)
    seen = oracles.flood_reachable(mask, rep.witness.cells[0])
    free_counts = mask.free.sum(axis=0)
    for j in range(1, mask.n_levels):
        assert (seen[:, j] & mask.free[:, j]).sum() == free_counts[j]


def test_interior_slab_two_components():
    mask, _, _ = _mask(lambda x, t: np.where((t >= 0.25) & (t < 0.5), 1.0, 0.0))
    cnt, _ = components(mask)
    assert cnt == 2
    rep = check_assumption(mask)
    assert not rep.slices_nonempty  # the slab blocks entire levels
    assert not rep.assumption_holds


def test_partial_slab_keeps_assumption():
    # weight blocks the right half for a while; the left half stays open
    mask, _, _ = _mask(lambda x, t: np.where((x >= 0.5) & (t >= 0.25) & (t < 0.75),
                                             1.0, 0.0))
    rep = check_assumption(mask)
    assert rep.slices_nonempty and rep.assumption_holds
    assert validate_witness(mask, rep.witness, rep.witness.cells[0], rep.witness.cells[-1])


def test_monotone_reachability_under_fattening():
    # widening the free subinterval never breaks the path condition
    total = None
    for u_hi in (0.3, 0.5, 0.8):
        spec = perevo.builtin_scenario("du_peng", n=32, M=64, u_hi=u_hi)
        mask = build_mask(spec.weight, spec.grid, spec.tgrid)
        rep = check_assumption(mask)
        assert rep.assumption_holds
        count = int(mask.free.sum())
        if total is not None:
            assert count >= total
        total = count


def test_witness_checker_rejects_bad_paths():
    mask, _, _ = _mask(0.0)
    good = perevo.PathWitness(((1, 0), (1, 1), (2, 1)))
    assert validate_witness(mask, good, (1, 0), (2, 1))
    # jump of two nodes
    bad1 = perevo.PathWitness(((1, 0), (3, 0)))
    assert not validate_witness(mask, bad1, (1, 0), (3, 0))
    # moves backwards in time
    bad2 = perevo.PathWitness(((1, 1), (1, 0)))
    assert not validate_witness(mask, bad2, (1, 1), (1, 0))
    # passes through a boundary cell
    bad3 = perevo.PathWitness(((0, 0), (1, 0)))
    assert not validate_witness(mask, bad3, (0, 0), (1, 0))


def test_mask_text_golden():
    mask, _, _ = _mask(lambda x, t: np.where((x >= 3 / 11) & (x < 8 / 11)
                                             & (t >= 0.25) & (t < 0.75), 1.0, 0.0),
                       n=10, M=4)
    expected = (
        "............\n"
        "...#####....\n"
        "...#####....\n"
        "............\n"
        "............\n"
    )
    assert mask_text(mask) == expected


def test_mask_text_roundtrip_stability():
    spec = perevo.builtin_scenario("counterexample")
    mask = build_mask(spec.weight, spec.grid, spec.tgrid)
    assert mask_text(mask) == mask_text(mask)
    lines = mask_text(mask).splitlines()
    assert len(lines) == spec.tgrid.M + 1
    assert all(len(line) == spec.grid.n + 2 for line in lines)


def test_mask_text_matches_per_cell_reference():
    # counterexample at --refine 4, the lattice `perevo check --refine 4` writes
    base = perevo.builtin_scenario("counterexample")
    spec = perevo.builtin_scenario("counterexample", n=4 * (base.grid.n + 1) - 1,
                                   M=4 * base.tgrid.M)
    mask = build_mask(spec.weight, spec.grid, spec.tgrid)
    assert mask_text(mask).encode() == oracles.mask_text_per_cell(mask.supp).encode()
