import math
import re
import tracemalloc

import numpy as np
import pytest

import perevo
from perevo.cli import main
from perevo.config import build_problem, parse_lambda_list
from perevo.errors import BadScenarioParams, InvariantError, SchemaError

BASE = """
[grid]
x_lo = 0.0
x_hi = 1.0
n = 16

[time]
T = 1.0
M = 32

[coefficients]
D = 1.0

[boundary]
bc = dirichlet

[weight]
weight = 0.0
"""


def test_minimal_document():
    spec = build_problem(BASE)
    assert spec.grid.n == 16 and spec.tgrid.M == 32
    assert not spec.weight.values.any()


def test_identical_documents_identical_lattices():
    a, b = build_problem(BASE), build_problem(BASE)
    assert a.digest() == b.digest()
    assert np.array_equal(a.coeff.D, b.coeff.D)


def test_unknown_key_rejected():
    with pytest.raises(SchemaError) as err:
        build_problem(BASE + "thetta = 1\n")
    assert "unknown key 'thetta' in [weight]" in str(err.value)


def test_unknown_section_rejected():
    with pytest.raises(SchemaError):
        build_problem(BASE + "\n[extra]\nfoo = 1\n")


def test_missing_required_key():
    broken = BASE.replace("x_hi = 1.0\n", "")
    with pytest.raises(SchemaError) as err:
        build_problem(broken)
    assert "x_hi" in str(err.value)


def test_malformed_number_names_key():
    with pytest.raises(SchemaError) as err:
        build_problem(BASE.replace("T = 1.0", "T = one"))
    assert "'T'" in str(err.value)


def test_negative_weight_invariant_error():
    doc = BASE.replace("weight = 0.0", "weight = sum(indicator_box(0,1,0,1), const(-2))")
    with pytest.raises(InvariantError):
        build_problem(doc)


def test_sin_t_expression_periodic():
    doc = BASE.replace("D = 1.0", "D = sin_t(1.0, 0.5)")
    spec = build_problem(doc)
    assert np.array_equal(spec.coeff.D[:, -1], spec.coeff.D[:, 0])
    assert spec.coeff.D.max() == pytest.approx(1.5, abs=1e-12)


def test_sin_t_coefficient_is_sampled_into_one_lattice():
    # n = 243, M = 2400: one lattice is 4.7 MB.  Measured with tracemalloc:
    # 5.3 MB peak and 4.7 MB kept with the sampled lattice kept, not copied
    # (10.0 MB peak with one copy of it); the bound fails with that copy
    doc = BASE.replace("n = 16", "n = 243").replace("M = 32", "M = 2400")
    doc = doc.replace("D = 1.0", "D = sin_t(1.0, 0.25)")
    build_problem(BASE.replace("D = 1.0", "D = sin_t(1.0, 0.25)"))
    tracemalloc.start()
    try:
        spec = build_problem(doc)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert spec.coeff.D.shape == (245, 2401) and not spec.coeff.D.flags.writeable
    assert peak < 7e6 and kept < 5e6
    # the public, copying builders give the same lattice and digest
    grid, tgrid = spec.grid, spec.tgrid
    D = perevo.model.sample_field(lambda x, t: 1.0 + 0.25 * np.sin(2.0 * math.pi * t / 1.0),
                                  grid, tgrid)
    coeff = perevo.make_coefficients(grid, tgrid, D)
    copied = perevo.make_problem(grid, tgrid, coeff, spec.bc, spec.weight)
    assert copied.digest() == spec.digest()


def test_indicator_box_half_open():
    doc = BASE.replace("weight = 0.0", "weight = indicator_box(0.25, 0.75, 0.5, 1.0)")
    spec = build_problem(doc)
    xs = spec.grid.nodes()
    ts = spec.tgrid.reduced_levels()
    expected = ((xs[:, None] >= 0.25) & (xs[:, None] < 0.75)
                & (ts[None, :] >= 0.5) & (ts[None, :] < 1.0)).astype(float)
    assert np.array_equal(spec.weight.values, expected)


def test_sum_expression():
    doc = BASE.replace("D = 1.0", "D = sum(const(1.0), sin_t(0.0, 0.25))")
    spec = build_problem(doc)
    assert spec.coeff.D.min() >= 0.75 - 1e-12


def test_builtin_weight_in_config():
    doc = BASE.replace("weight = 0.0", "weight = du_peng(0, 0.5, 0.5)")
    spec = build_problem(doc)
    ref = perevo.builtin_scenario("du_peng", n=16, M=32)
    assert np.array_equal(spec.weight.values, ref.weight.values)


# the model function behind each expression, on BASE's lattice
_REFERENCE = {
    "du_peng": lambda **params: perevo.builtin_scenario("du_peng", n=16, M=32, **params),
    "indicator_box": lambda **params: perevo.model.box_weight(
        perevo.Grid1D(0.0, 1.0, 16), perevo.TimeGrid(1.0, 32), **params),
}


@pytest.mark.parametrize("expr, name, params", [
    ("du_peng(0.6, 0.2, 0.5)", "du_peng", {"u_lo": 0.6, "u_hi": 0.2}),
    ("du_peng(0, 0.5, 0)", "du_peng", {"t_switch": 0.0}),
    ("indicator_box(0.5, 0.25, 0, 1)", "indicator_box", dict(x1=0.5, x2=0.25, t1=0.0, t2=1.0)),
    ("indicator_box(0, 1, 0.7, 0.2)", "indicator_box", dict(x1=0.0, x2=1.0, t1=0.7, t2=0.2)),
])
def test_config_weight_checks_match_the_builtin(expr, name, params):
    with pytest.raises(BadScenarioParams) as from_builtin:
        _REFERENCE[name](**params)
    with pytest.raises(BadScenarioParams) as from_config:
        build_problem(BASE.replace("weight = 0.0", f"weight = {expr}"))
    assert str(from_config.value) == str(from_builtin.value)


def test_separable_is_not_an_expression(tmp_path, capsys):
    # indicator_box(...) is the one name of a box
    doc = BASE.replace("weight = 0.0", "weight = separable(0, 0.5, 0, 1)")
    with pytest.raises(SchemaError, match="unknown expression 'separable'"):
        build_problem(doc)
    path = tmp_path / "sep.cfg"
    path.write_text(doc)
    assert main(["check", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "unknown expression 'separable'" in capsys.readouterr().err


def test_limit_section_is_unknown():
    # the weight is the only description of the vanishing set
    with pytest.raises(SchemaError, match=r"unknown section \[limit\]"):
        build_problem(BASE + "\n[limit]\npiece1 = 0 0.5 all\npiece2 = 0.5 1.0 0:0.5\n")


def test_parse_lambda_list():
    assert parse_lambda_list("0,1:1e5:x10") == [0.0, 1.0, 10.0, 100.0, 1000.0, 10000.0, 100000.0]
    assert parse_lambda_list("3") == [3.0]
    assert parse_lambda_list("5,1") == [1.0, 5.0]
    with pytest.raises(SchemaError):
        parse_lambda_list("-1,2")
    with pytest.raises(SchemaError):
        parse_lambda_list("1:10")
    with pytest.raises(SchemaError):
        parse_lambda_list("")


def test_config_from_file(tmp_path):
    p = tmp_path / "prob.cfg"
    p.write_text(BASE)
    spec = build_problem(str(p))
    assert spec.grid.n == 16


def test_missing_config_file_is_named(tmp_path):
    missing = str(tmp_path / "missing.cfg")
    with pytest.raises(SchemaError, match=re.escape(f"config file {missing!r} does not exist")):
        build_problem(missing)
    with pytest.raises(SchemaError, match="config file 'missing.cfg' does not exist"):
        build_problem("missing.cfg")
