import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import perevo
from perevo.admissibility import build_mask, mask_text
from perevo.cli import main
from perevo.evolve import column_workers

MINI = """
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
weight = {weight}
"""


def _cfg(tmp_path, weight="0.0", extra=""):
    p = tmp_path / "prob.cfg"
    p.write_text(MINI.format(weight=weight) + extra)
    return str(p)


def _fresh_python(*args):
    """Run a fresh interpreter that imports this perevo; return the finished process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(perevo.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


def test_eigen_writes_results(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["eigen", "heat_baseline", "--lambda", "0", "--out", str(out)])
    assert rc == 0
    data = json.loads((out / "spectral_result.json").read_text())
    assert data["trivial_limit"] is False
    assert 0.99 <= data["mu"] <= 1.01
    assert (out / "eigenfunction.csv").read_text().splitlines()[0] == "t,x,u"
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["command"] == "eigen" and len(manifest["digest"]) == 64


def test_eigen_without_convergence_writes_a_manifest(tmp_path, capsys, stall_cfg):
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="positivity not certified"):
        assert main(["eigen", stall_cfg, "--out", str(out)]) == 4
    assert "no convergence within 20000 iterations" in capsys.readouterr().err
    result = json.loads((out / "spectral_result.json").read_text())
    assert result["converged"] is False and result["iterations"] == 20000
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["command"] == "eigen" and manifest["outputs"] == ["spectral_result.json"]
    assert manifest["digest"] == perevo.build_problem(stall_cfg).digest()


FLUX = """
[grid]
x_lo = 0.0
x_hi = 1.0
n = 12
[time]
T = 1.0
M = 12
[coefficients]
D = 1.0
a = 12.0
b = 12.0
[boundary]
bc = neumann
[weight]
weight = const(0)
"""


def test_eigen_warns_when_positivity_is_not_certified(tmp_path):
    # Neumann ends with drift inside the mesh-Peclet bound: the period map
    # has negative entries, and the run succeeds but says so on stderr
    cfg = tmp_path / "flux.cfg"
    cfg.write_text(FLUX)
    done = _fresh_python("-m", "perevo.cli", "eigen", str(cfg), "--out", str(tmp_path / "o"))
    assert done.returncode == 0, done.stderr
    assert "UserWarning: positivity not certified" in done.stderr
    assert "mu=9.0378" in done.stdout
    with pytest.warns(UserWarning, match="positivity not certified"):
        F = perevo.prepare(perevo.build_problem(str(cfg)), 0.0)
    assert F.peclet_ok and not F.positivity
    assert perevo.monodromy(F).P.min() < 0


def test_eigen_trivial_limit_exit_3(tmp_path):
    # a gigantic constant penalty pushes the period map below the floor
    cfg = _cfg(tmp_path, weight="1.0")
    rc = main(["eigen", cfg, "--lambda", "1e300", "--out", str(tmp_path / "o")])
    assert rc == 3
    data = json.loads((tmp_path / "o" / "spectral_result.json").read_text())
    assert data["trivial_limit"] is True and data["mu"] is None


def test_eigen_bad_config_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text(MINI.format(weight="0.0").replace("x_hi = 1.0", "x_hoo = 1.0"))
    rc = main(["eigen", str(p), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "x_hoo" in capsys.readouterr().err


def test_unknown_target_exit_2(tmp_path, monkeypatch, capsys):
    rc = main(["eigen", str(tmp_path / "missing.cfg"), "--out", str(tmp_path / "o")])
    assert rc == 2
    # a box weight is the config expression indicator_box(...), not a builtin
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "separable", "--out", str(tmp_path / "o")]) == 2
    assert "'separable' is neither a builtin scenario" in capsys.readouterr().err


def test_missing_config_file_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "nonexistent.cfg")
    rc = main(["check", missing, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"{missing!r} is neither a builtin scenario nor a config file" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_seed_and_config_options_exit_2(tmp_path, capsys):
    # the target is the one way to name a problem, nothing is seeded, and
    # power iteration has one stopping rule
    out = ["--out", str(tmp_path / "o")]
    for argv in (["eigen", "du_peng"], ["sweep", "du_peng"], ["check", "du_peng"],
                 ["kernel", "du_peng", "--s", "0", "--t", "0.5"]):
        for option in ("--seed", "--config", "--tol", "--max-iter"):
            with pytest.raises(SystemExit) as exc:
                main([*argv, option, "1", *out])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {option} 1" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main([argv[0], *argv[2:], *out])
        assert exc.value.code == 2
        assert "required: target" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_sweep_outputs(tmp_path):
    out = tmp_path / "sw"
    rc = main(["sweep", "du_peng", "--lambdas", "0,1:1e3:x10", "--eps", "0.5",
               "--out", str(out)])
    assert rc == 0
    header = (out / "sweep.csv").read_text().splitlines()[0]
    assert header == "lambda,r,mu,residual,s_eps_mass,dist_to_limit_L2,trivial"
    rep = json.loads((out / "convergence_report.json").read_text())
    assert rep["divergent"] is False and rep["trivial"] is False
    assert rep["mu_inf"] > 0
    mu_dat = (out / "mu_vs_lambda.dat").read_text().splitlines()
    assert len(mu_dat) == 5 and all(len(l.split()) == 2 for l in mu_dat)
    assert json.loads((out / "run_manifest.json").read_text())["factored_steps"] == 3


def test_sweep_counterexample_divergent(tmp_path):
    out = tmp_path / "swc"
    rc = main(["sweep", "counterexample", "--lambdas", "0,1:1e3:x10", "--eps", "0.5",
               "--out", str(out)])
    assert rc == 0
    rep = json.loads((out / "convergence_report.json").read_text())
    assert rep["divergent"] is True and rep["trivial"] is True
    assert rep["mu_inf"] is None
    assert rep["p_norm_decay"][-1][1] <= rep["p_norm_decay"][0][1]


# two free channels; the left one drifts right over the period, so every
# hard-wall path runs from the left level-0 run to the right one: the map is
# nonzero (247 entries) but nilpotent, and eig returns only exact zeros
DRIFT = """
[grid]
x_lo = 0
x_hi = 1
n = 63
[time]
T = 1
M = 100
[coefficients]
D = 1
[boundary]
bc = dirichlet
[weight]
weight = sum(indicator_box(0, 0.1, 0, 0.3), indicator_box(0.3, 0.6, 0, 0.3), \
indicator_box(0.9, 1, 0, 0.3), indicator_box(0, 0.1, 0.3, 0.6), \
indicator_box(0.5, 1, 0.3, 0.6), indicator_box(0, 0.4, 0.6, 0.8), \
indicator_box(0.8, 1, 0.6, 0.8), indicator_box(0, 0.6, 0.8, 1), indicator_box(0.9, 1, 0.8, 1))
"""


def test_sweep_with_a_nilpotent_hard_wall_map_is_trivial(tmp_path):
    cfg = tmp_path / "drift.cfg"
    cfg.write_text(DRIFT)
    lim = perevo.limit_monodromy(perevo.build_problem(str(cfg)))
    assert np.count_nonzero(lim.Pinf) == 247 and lim.mu_inf == math.inf
    out = tmp_path / "sw"
    rc = main(["sweep", str(cfg), "--lambdas", "1,10,100,1000", "--out", str(out)])
    assert rc == 0
    rep = json.loads((out / "convergence_report.json").read_text())
    assert rep["divergent"] is True and rep["trivial"] is True
    assert rep["mu_inf"] is None


def test_sweep_without_a_valid_row_writes_its_report(tmp_path, capsys, stall_cfg):
    out = tmp_path / "o"
    with pytest.warns(UserWarning, match="positivity not certified"), \
            pytest.warns(UserWarning, match="did not converge"):
        rc = main(["sweep", stall_cfg, "--lambdas", "1", "--out", str(out)])
    assert rc == 2
    assert "no penalty gave a valid row" in capsys.readouterr().err
    report = json.loads((out / "convergence_report.json").read_text())
    assert list(report) == ["lambda_max", "divergent", "n_records", "vanishing_slope",
                            "vanishing_status", "trivial", "mu_inf", "mu_gap", "op_gap_max",
                            "eig_dist_max", "q"]
    with pytest.warns(UserWarning, match="positivity not certified"):
        lim = perevo.limit_monodromy(perevo.build_problem(stall_cfg))
    assert report["mu_inf"] == lim.mu_inf
    assert report["mu_gap"] is report["op_gap_max"] is report["eig_dist_max"] is None
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert "convergence_report.json" in manifest["outputs"]


def test_kernel_outputs_and_snap(tmp_path, capsys):
    out = tmp_path / "k"
    rc = main(["kernel", "heat_baseline", "--lambda", "0", "--s", "0", "--t", "0.05",
               "--out", str(out)])
    assert rc == 0
    fit = json.loads((out / "gaussian_fit.json").read_text())
    assert fit["max_violation"] <= 0.0
    assert fit["cconst"] > 0.1
    first = (out / "kernel.csv").read_text().splitlines()[:2]
    assert first[0] == "x,y,k"


def test_kernel_bad_levels_exit_2(tmp_path):
    assert main(["kernel", "heat_baseline", "--s", "0.5", "--t", "0.5",
                 "--out", str(tmp_path / "o")]) == 2
    assert main(["kernel", "heat_baseline", "--s", "0.9", "--t", "0.1",
                 "--out", str(tmp_path / "o")]) == 2


def test_check_exit_codes(tmp_path):
    assert main(["check", "du_peng", "--out", str(tmp_path / "a")]) == 0
    assert main(["check", "counterexample", "--out", str(tmp_path / "b")]) == 6
    cfg = _cfg(tmp_path, weight="1.0")
    assert main(["check", cfg, "--out", str(tmp_path / "c")]) == 7
    rep = json.loads((tmp_path / "b" / "admissibility_report.json").read_text())
    assert rep["assumption_holds"] is False and rep["failing_pair"] is not None


def test_check_refine_flag(tmp_path):
    assert main(["check", "du_peng", "--refine", "2", "--out", str(tmp_path / "r")]) == 0
    text = (tmp_path / "r" / "mask.txt").read_bytes()
    spec_lines = 2 * 512 + 1  # refined time levels plus one
    assert len(text.decode().splitlines()) == spec_lines
    assert hashlib.sha256(text).hexdigest() == (
        "428698b4d780b8cb148c4abc4b85489e3f3e37244d358508da267fe763530b0c")
    rep = json.loads((tmp_path / "r" / "admissibility_report.json").read_text())
    assert rep["assumption_holds"] is True and rep["failing_pair"] is None
    assert rep["witness_length"] == 1153 and rep["components"] == 1

    assert main(["check", "counterexample", "--refine", "4",
                 "--out", str(tmp_path / "c")]) == 6
    text = (tmp_path / "c" / "mask.txt").read_bytes()
    assert hashlib.sha256(text).hexdigest() == (
        "9b08a8cae9cc609565c2363ae19fb2a5aecfe2251b875c0228ed306f18afb17e")
    rep = json.loads((tmp_path / "c" / "admissibility_report.json").read_text())
    assert rep["failing_pair"] == [[1, 0], [98, 600]]


@pytest.mark.parametrize("k", ["0", "-3"])
def test_check_refine_below_one_exit_2(tmp_path, capsys, k):
    assert main(["check", "du_peng", "--refine", k, "--out", str(tmp_path / "r")]) == 2
    assert f"--refine needs K >= 1, got {k}" in capsys.readouterr().err
    assert not (tmp_path / "r" / "mask.txt").exists()


def test_check_refines_a_config_document(tmp_path):
    # the document spells out du_peng at n = 16, M = 32; refined twice it is
    # the builtin at n = 33, M = 64
    cfg = _cfg(tmp_path, weight="du_peng(0.0, 0.5, 0.5)")
    ref = perevo.builtin_scenario("du_peng", n=33, M=64)
    mask = mask_text(build_mask(ref.weight, ref.grid, ref.tgrid))
    out = tmp_path / "doc"
    assert main(["check", cfg, "--refine", "2", "--out", str(out)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["digest"] == ref.digest() and manifest["config"] == cfg
    assert (out / "mask.txt").read_text() == mask


def test_builtin_name_wins_over_a_file_of_that_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "du_peng").write_text(MINI.format(weight="1.0"))
    assert main(["check", "du_peng", "--out", str(tmp_path / "o")]) == 0
    manifest = json.loads((tmp_path / "o" / "run_manifest.json").read_text())
    assert manifest["digest"] == perevo.builtin_scenario("du_peng").digest()
    # a path spelled with a directory reaches the file
    assert main(["check", "./du_peng", "--out", str(tmp_path / "f")]) == 7
    manifest = json.loads((tmp_path / "f" / "run_manifest.json").read_text())
    assert manifest["digest"] == perevo.build_problem("du_peng").digest()
    assert manifest["config"] == "./du_peng"


def test_check_leaves_scipy_ndimage_unimported(tmp_path):
    # a fresh interpreter: this one has scipy.ndimage from tests/oracles.py
    code = ("import sys\n"
            "import perevo\n"
            "from perevo import cli\n"
            "assert 'scipy.ndimage' not in sys.modules, 'after import perevo'\n"
            "assert cli.main(['check', 'counterexample', '--out', sys.argv[1]]) == 6\n"
            "assert 'scipy.ndimage' not in sys.modules, 'after perevo check'\n")
    done = _fresh_python("-c", code, str(tmp_path / "o"))
    assert done.returncode == 0, done.stderr


def test_outputs_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "r1", tmp_path / "r2"
    for out in (a, b):
        assert main(["check", "counterexample", "--out", str(out)]) == 6
        assert main(["eigen", "heat_baseline", "--lambda", "1", "--out", str(out)]) == 0
    for name in ("mask.txt", "admissibility_report.json", "spectral_result.json",
                 "eigenfunction.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_out_alone_chooses_the_output_directory(tmp_path, monkeypatch):
    # PEREVO_OUT once overrode --out; no environment variable is read now
    env_dir = tmp_path / "env_out"
    monkeypatch.setenv("PEREVO_OUT", str(env_dir))
    assert main(["check", "du_peng", "--out", str(tmp_path / "flag_out")]) == 0
    assert (tmp_path / "flag_out" / "mask.txt").exists()
    assert not env_dir.exists()


def test_sweep_reports_the_limit_of_every_weight(tmp_path):
    box = "indicator_box(0.5, 1.0, 0.5, 1.0)"
    for name, target, mu_inf in (("dp", "du_peng", 24.3235),
                                 ("cfg", _cfg(tmp_path, weight=box), None)):
        out = tmp_path / name
        assert main(["sweep", target, "--lambdas", "0,1e2,1e4", "--out", str(out)]) == 0
        rep = json.loads((out / "convergence_report.json").read_text())
        assert rep["divergent"] is False and rep["trivial"] is False
        assert math.isfinite(rep["mu_inf"]) and rep["mu_gap"] >= 0
        if mu_inf is not None:
            assert rep["mu_inf"] == pytest.approx(mu_inf, abs=1e-4)


def test_config_with_limit_section_exit_2(tmp_path, capsys):
    # the weight is the only description of the vanishing set
    extra = "\n[limit]\npiece1 = 0 0.5 all\npiece2 = 0.5 1.0 0:0.5\n"
    cfg = _cfg(tmp_path, weight="du_peng(0, 0.5, 0.5)", extra=extra)
    rc = main(["sweep", cfg, "--lambdas", "0,1e2", "--out", str(tmp_path / "sw")])
    assert rc == 2
    assert "unknown section [limit]" in capsys.readouterr().err


def test_sweep_without_oracle_when_its_step_is_singular(tmp_path, capsys):
    # two nodes, c0 = -17: where the weight vanishes (every node from t = 0.5
    # on) the step matrix is exactly singular at every penalty
    cfg = tmp_path / "singular.cfg"
    cfg.write_text(MINI.format(weight="indicator_box(0, 0.5, 0, 0.5)")
                   .replace("n = 16", "n = 2").replace("M = 32", "M = 8")
                   .replace("D = 1.0", "D = 1.0\nc0 = -17.0"))
    out = tmp_path / "sw"
    with pytest.warns(UserWarning, match="zero pivot"):
        rc = main(["sweep", str(cfg), "--lambdas", "0,1,10", "--out", str(out)])
    # no penalty gives a valid row: the files are written, the exit code is 2
    assert rc == 2
    err = capsys.readouterr().err
    assert "no hard-wall oracle" in err and "no penalty gave a valid row" in err
    rep = json.loads((out / "convergence_report.json").read_text())
    assert "mu_inf" not in rep and rep["divergent"] is False and rep["n_records"] == 3


def test_config_weight_parameters_are_checked(tmp_path, capsys):
    # u_hi < u_lo: the builtin du_peng refuses it, and so does the config path
    cfg = _cfg(tmp_path, weight="du_peng(0.6, 0.2, 0.5)")
    assert main(["sweep", cfg, "--lambdas", "0", "--out", str(tmp_path / "sw")]) == 2
    assert "subinterval (0.6, 0.2) not inside" in capsys.readouterr().err
    assert not (tmp_path / "sw" / "sweep.csv").exists()


def test_demo_subcommand_is_gone(tmp_path, capsys):
    # the scripts in demos/ tell each scenario's story (tests/test_demos.py)
    with pytest.raises(SystemExit) as exc:
        main(["demo", "du_peng", "--out", str(tmp_path / "demo")])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert not (tmp_path / "demo").exists()


def test_manifest_records_factored_steps(tmp_path):
    # one distinct step matrix for heat_baseline, three runs of levels for du_peng
    assert main(["eigen", "heat_baseline", "--out", str(tmp_path / "e")]) == 0
    assert main(["kernel", "du_peng", "--s", "0", "--t", "0.05",
                 "--out", str(tmp_path / "k")]) == 0
    steps = {d: json.loads((tmp_path / d / "run_manifest.json").read_text())["factored_steps"]
             for d in "ek"}
    assert steps == {"e": 1, "k": 3}


def test_manifest_records_column_workers(tmp_path):
    out = tmp_path / "out"
    main(["check", "du_peng", "--out", str(out)])
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["column_workers"] == column_workers() >= 1
    assert "factored_steps" not in manifest  # check factors no step
