import numpy as np
import pytest

import oracles
import perevo
from perevo import admissibility
from perevo.admissibility import (SpaceTimeMask, _opening, build_mask, check_assumption,
                                  check_regular_support, components, mask_text, slices,
                                  validate_witness)
from perevo.errors import DimensionMismatch


def _mask(mfun, n=10, M=12, T=1.0):
    g = perevo.Grid1D(0.0, 1.0, n)
    t = perevo.TimeGrid(T, M)
    return build_mask(perevo.make_weight(g, t, mfun), g, t), g, t


def test_zero_weight_all_free():
    mask, g, t = _mask(0.0)
    assert mask.free[1:-1, :].all()
    assert not mask.free[0, :].any() and not mask.free[-1, :].any()
    assert np.array_equal(slices(mask, 0), np.arange(1, g.n + 1))
    assert components(mask) == 1


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


def test_opening_and_components_match_ndimage():
    rng = np.random.default_rng(20261018)
    cases = [np.zeros((7, 6), dtype=bool), np.ones((7, 6), dtype=bool),
             np.ones((1, 9), dtype=bool), np.ones((9, 1), dtype=bool)]
    cases += [rng.random(shape) < 0.6 for shape in ((1, 12), (12, 1), (1, 1))]
    for _ in range(400):
        shape = tuple(int(k) for k in rng.integers(1, 20, size=2))
        cases.append(rng.random(shape) < rng.choice((0.2, 0.5, 0.8, 0.95)))
    verdicts = set()
    for cells in cases:
        # an opened support is regular, so both verdicts occur
        for supp in (cells, oracles.ndimage_opening(cells)):
            opened = oracles.ndimage_opening(supp)
            assert np.array_equal(_opening(supp), opened)
            mask = SpaceTimeMask(~supp, supp, 0.5, 1.0, 1.0)
            verdict = check_regular_support(mask)
            assert verdict == np.array_equal(opened, supp)
            verdicts.add(verdict)
            assert components(mask) == oracles.ndimage_component_count(~supp)
    assert verdicts == {True, False}


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


def _random_mask(rng, n=10, M=16, block_ends=True):
    """1-4 blocked boxes on an n-node, M-step lattice; in half of the masks
    1-2 single level-0 cells are blocked too, which splits level 0 into
    several free runs.  With block_ends False the endpoint nodes stay free
    wherever no box covers them, as in a mask built directly."""
    supp = np.zeros((n + 2, M + 1), dtype=bool)
    for _ in range(int(rng.integers(1, 5))):
        i0, i1 = np.sort(rng.integers(0, n + 3, size=2))
        j0, j1 = np.sort(rng.integers(0, M + 2, size=2))
        supp[i0:i1, j0:j1] = True
    if rng.random() < 0.5:
        supp[rng.integers(2, n, size=int(rng.integers(1, 3))), 0] = True
    free = ~supp
    if block_ends:
        free[[0, -1], :] = False
    return SpaceTimeMask(free, supp, 0.5, 1.0, 1.0)


def _level0_runs(mask):
    """Number of free runs at level 0, read off the run graph."""
    return mask.graph.level.count(0)


def test_forward_paths_match_per_start_flood_on_random_masks():
    rng = np.random.default_rng(20261019)
    several_runs = failed = failed_after_first_run = 0
    for _ in range(300):
        mask = _random_mask(rng)
        rep = check_assumption(mask)
        if not mask.free.any(axis=0).all():
            assert not rep.slices_nonempty and not rep.assumption_holds
            assert rep.failing_pair is None
            continue
        pair = oracles.first_unreachable_pair(mask)
        assert rep.failing_pair == pair
        assert rep.assumption_holds == (pair is None)
        starts = slices(mask, 0)
        several_runs += _level0_runs(mask) > 1
        if pair is None:
            end = (int(slices(mask, mask.n_levels - 1)[-1]), mask.n_levels - 1)
            assert validate_witness(mask, rep.witness, (int(starts[0]), 0), end)
        else:
            failed += 1
            failed_after_first_run += pair[0][0] > mask.graph.last[0]
    assert several_runs >= 100 and failed >= 50 and failed_after_first_run >= 3


def test_free_endpoint_nodes_match_per_start_flood():
    """Masks built directly may leave the endpoint nodes free; a run must
    never carry on from one level's last node into the next level's first."""
    rng = np.random.default_rng(20261020)
    wrapping = failed = 0
    for _ in range(300):
        mask = _random_mask(rng, block_ends=False)
        free = mask.free
        wrapping += bool((free[-1, :-1] & free[0, 1:]).any())
        rep = check_assumption(mask)
        assert rep.components == oracles.ndimage_component_count(free)
        if not free.any(axis=0).all():
            assert not rep.slices_nonempty and rep.failing_pair is None
            continue
        pair = oracles.first_unreachable_pair(mask)
        assert rep.failing_pair == pair
        failed += pair is not None
        if pair is None:
            assert rep.witness.cells == oracles.witness_walk(mask)
    assert wrapping >= 100 and failed >= 50


def test_witness_matches_cell_by_cell_walk_on_random_masks():
    # node 5 of level 2 is 3 nodes from both level-1 runs: the lower one wins
    free = np.zeros((11, 4), dtype=bool)
    free[1:10, [0, 2]] = True
    free[[1, 2, 8, 9], 1] = True
    free[5, 3] = True
    mask = SpaceTimeMask(free, ~free, 0.5, 1.0, 1.0)
    tie = ((1, 0), (2, 0), (2, 1), (2, 2), (3, 2), (4, 2), (5, 2), (5, 3))
    assert check_assumption(mask).witness.cells == oracles.witness_walk(mask) == tie

    rng = np.random.default_rng(20261021)
    held = one_level = 0
    for _ in range(300):
        mask = _random_mask(rng, n=int(rng.integers(3, 14)), M=int(rng.integers(0, 24)))
        if mask.n_levels == 1:
            one_level += 1
            with pytest.raises(DimensionMismatch):
                check_assumption(mask)
            continue
        rep = check_assumption(mask)
        if rep.assumption_holds:
            held += 1
            cells = oracles.witness_walk(mask)
            assert rep.witness.cells == cells
            assert validate_witness(mask, rep.witness, cells[0], cells[-1])
    assert held >= 100 and one_level >= 5


def test_one_level_mask_is_rejected():
    # free nodes {1, 3} of 5 on one level: no witness can join them
    free = np.zeros((5, 1), dtype=bool)
    free[[1, 3], 0] = True
    with pytest.raises(DimensionMismatch, match="two levels"):
        check_assumption(SpaceTimeMask(free, ~free, 0.5, 1.0, 1.0))


def _three_run_mask():
    """Level 0 has free runs {1, 2, 3}, {5, 6, 7} and {9, 10}.  Level 1 has
    runs {1} and {3, ..., 10}; the first level-0 run reaches both, the
    second only the wide one.  Levels 2 and 3 are free from 1 to 10."""
    free = np.zeros((12, 4), dtype=bool)
    free[1:11, :] = True
    free[[4, 8], 0] = False
    free[2, 1] = False
    return SpaceTimeMask(free, ~free, 0.5, 1.0, 1.0)


def test_second_level0_run_fails_at_its_first_node():
    mask = _three_run_mask()
    assert _level0_runs(mask) == 3
    rep = check_assumption(mask)
    assert rep.slices_nonempty and not rep.assumption_holds
    assert rep.failing_pair == ((5, 0), (1, 1))
    assert rep.failing_pair == oracles.first_unreachable_pair(mask)


def test_one_reach_history_per_level0_run(monkeypatch):
    starts = []
    inner = admissibility._first_unreached

    def counted(g, n0, s):
        starts.append(g.first[s])
        return inner(g, n0, s)

    monkeypatch.setattr(admissibility, "_first_unreached", counted)
    # du_peng at --refine 2: one level-0 run of 129 free nodes
    base = perevo.builtin_scenario("du_peng")
    spec = perevo.builtin_scenario("du_peng", n=2 * (base.grid.n + 1) - 1, M=2 * base.tgrid.M)
    mask = build_mask(spec.weight, spec.grid, spec.tgrid)
    assert slices(mask, 0).size == 129
    assert check_assumption(mask).assumption_holds
    assert starts == [1]

    starts.clear()
    check_assumption(_three_run_mask())
    assert starts == [1, 5]


def test_interior_slab_two_components():
    mask, _, _ = _mask(lambda x, t: np.where((t >= 0.25) & (t < 0.5), 1.0, 0.0))
    assert components(mask) == 2
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
