"""Command-line entry point.

Subcommands
-----------
eigen TARGET --lambda L      principal eigenpair at one penalty
sweep TARGET --lambdas LIST  penalty sweep with convergence report
kernel TARGET --lambda L --s S --t T   kernel dump plus Gaussian envelope
check TARGET                 vanishing-set admissibility report and mask grid

TARGET is a builtin scenario name (heat_baseline, du_peng, counterexample)
or a path to a config document; a builtin name wins, so ./NAME reaches a file
named like one.
Outputs land in --out (default ./perevo_out).  Every run writes a
run_manifest.json with a stable digest of the resolved problem; check hashes
it on a thread of its own beside the check when more than one CPU is usable.
eigen, sweep and kernel add factored_steps, the number of distinct step
matrices built at each penalty.  sweep's eigenfunction distances are
h-weighted l2 norms ("q": 2).  The scripts in demos/ tell each scenario's
story end to end.

Files give r and residuals on the plain scale: a penalized period map below
the range of float64 has r = 0.0 there, and mu stays exact (see
spectral.MonodromyMatrix).

Exit codes: 0 success / assumption holds; 2 bad config or arguments, or a
sweep in which no penalty gave a valid row; 3 trivial limit (power iteration
fell below spectral.R_FLOOR: no eigenpair);
4 power iteration missed its one stopping rule, relative residual 1e-10 within
20000 iterations; 5 Gaussian envelope violated; 6 path condition fails; 7
irregular support or an empty slice.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

from . import __version__
from .admissibility import build_mask, check_assumption, mask_text
from .config import build_problem, document_lattice, parse_lambda_list
from .errors import (InsufficientData, NoConvergence, PerevoError, SchemaError, SingularStep,
                     TrivialLimitComparison)
from .evolve import column_workers, distinct_steps, prepare, trajectory_rows
from .kernel import envelope_violation, fit_gaussian, kernel_matrix, check_monotone_in_lambda
from .limitflow import (classify_divergent, compare_to_limit, limit_monodromy, sweep,
                        vanishing_rate)
from .model import SCENARIO_NAMES, builtin_lattice, builtin_scenario
from .operator import garding_audit, stencil_bands
from .spectral import eigengap, monodromy, periodic_eigenfunction, spectral_radius
from . import iofmt


def _resolve(target: str, refine: int = 1):
    """Return (spec, label) from a scenario name or config path, built once
    on the refine-times finer lattice: n -> refine(n + 1) - 1 interior nodes
    and M -> refine M steps, with the target's n and M read without sampling
    a lattice."""
    if target in SCENARIO_NAMES:
        build, lattice = builtin_scenario, builtin_lattice
    elif os.path.exists(target):
        build, lattice = build_problem, document_lattice
    else:
        raise SchemaError(f"{target!r} is neither a builtin scenario nor a config file")
    if refine == 1:
        return build(target), target
    n, M = lattice(target)
    return build(target, n=refine * (n + 1) - 1, M=refine * M), target


def _outdir(args) -> str:
    out = args.out or "perevo_out"
    os.makedirs(out, exist_ok=True)
    return out


def _manifest(outdir, command, label, digest: str, outputs, t0, factored_steps=None):
    record = {
        "command": command,
        "config": label,
        "digest": digest,
        "outputs": sorted(outputs),
        "wall_time_s": time.time() - t0,
        "column_workers": column_workers(),
        "version": __version__,
    }
    if factored_steps is not None:
        record["factored_steps"] = factored_steps
    iofmt.write_json(os.path.join(outdir, "run_manifest.json"), record)


def _audit(spec):
    # the rounding of the smallest eigenvalue scales with the largest stencil entry
    worst = garding_audit(spec)
    if worst < -1e-13 * float(abs(stencil_bands(spec)[1]).max()):
        print(f"warning: coercivity audit found deficit {worst:.3e}", file=sys.stderr)


def cmd_eigen(args) -> int:
    t0 = time.time()
    spec, label = _resolve(args.target)
    outdir = _outdir(args)
    _audit(spec)
    F = prepare(spec, args.lam)
    code = 0
    P = monodromy(F)
    try:
        res = spectral_radius(P)
    except NoConvergence as exc:
        iofmt.write_json(os.path.join(outdir, "spectral_result.json"), {
            "lambda": args.lam, "r": math.ldexp(exc.r_estimate, -P.sigma), "mu": None,
            "residual": math.ldexp(exc.residual, -P.sigma), "eigengap": None,
            "iterations": exc.max_iter, "trivial_limit": False,
            "converged": False,
        })
        print(f"no convergence within {exc.max_iter} iterations", file=sys.stderr)
        _manifest(outdir, "eigen", label, spec.digest(), ["spectral_result.json"], t0,
                  distinct_steps(spec))
        return 4
    outputs = ["spectral_result.json"]
    iofmt.write_json(os.path.join(outdir, "spectral_result.json"), {
        "lambda": res.lam, "r": math.ldexp(res.r, -res.sigma), "mu": res.mu,
        "residual": math.ldexp(res.residual, -res.sigma),
        "eigengap": 0.0 if res.trivial else math.ldexp(eigengap(P), -P.sigma),
        "iterations": res.iterations, "trivial_limit": res.trivial,
    })
    if res.trivial:
        print("trivial limit: power iteration fell below the floor (no eigenpair)")
        code = 3
    else:
        eig = periodic_eigenfunction(F, res)
        iofmt.write_csv(os.path.join(outdir, "eigenfunction.csv"), ["t", "x", "u"],
                        trajectory_rows(eig.samples, spec))
        outputs.append("eigenfunction.csv")
        print(f"lambda={res.lam:g}  r={math.ldexp(res.r, -res.sigma):.12g}  mu={res.mu:.12g}  "
              f"residual={math.ldexp(res.residual, -res.sigma):.3e}  "
              f"iterations={res.iterations}")
    _manifest(outdir, "eigen", label, spec.digest(), outputs, t0, distinct_steps(spec))
    return code


def cmd_sweep(args) -> int:
    t0 = time.time()
    spec, label = _resolve(args.target)
    outdir = _outdir(args)
    _audit(spec)
    lambdas = parse_lambda_list(args.lambdas)
    try:
        oracle = limit_monodromy(spec)
    except SingularStep as exc:
        print(f"warning: no hard-wall oracle: {exc}", file=sys.stderr)
        oracle = None
    records = sweep(spec, lambdas, args.eps, oracle=oracle)

    rows = [(r.lam, math.ldexp(r.r, -r.sigma), r.mu, math.ldexp(r.residual, -r.sigma),
             r.s_eps_mass, r.dist_to_limit_L2, str(bool(r.trivial)).lower()) for r in records]
    iofmt.write_csv(os.path.join(outdir, "sweep.csv"),
                    ["lambda", "r", "mu", "residual", "s_eps_mass",
                     "dist_to_limit_L2", "trivial"], rows)
    iofmt.atomic_write(os.path.join(outdir, "mu_vs_lambda.dat"), "".join(
        f"{iofmt.fmt(r.lam)} {iofmt.fmt(r.mu)}\n" for r in records if r.valid))
    iofmt.atomic_write(os.path.join(outdir, "seps_vs_lambda.dat"), "".join(
        f"{iofmt.fmt(r.lam)} {iofmt.fmt(r.s_eps_mass)}\n" for r in records if r.valid))

    # the limit oracle is authoritative for the divergence call; the per-decade
    # growth heuristic only applies when its step matrices are singular
    divergent = (not math.isfinite(oracle.mu_inf)) if oracle is not None \
        else classify_divergent(records)
    report = {"lambda_max": records[-1].lam if records else None,
              "divergent": divergent,
              "n_records": len(records)}
    try:
        rate = vanishing_rate(records, build_mask(spec.weight, spec.grid, spec.tgrid))
        report["vanishing_slope"] = rate.slope
        report["vanishing_status"] = rate.status
    except PerevoError:
        report["vanishing_slope"] = None
        report["vanishing_status"] = "insufficient_data"
    if oracle is not None:
        try:
            cmp_ = compare_to_limit(records, oracle)
            report.update({"trivial": False, "mu_inf": oracle.mu_inf, "mu_gap": cmp_.mu_gap,
                           "op_gap_max": cmp_.op_gap_max, "eig_dist_max": cmp_.eig_dist_max,
                           "q": 2.0})
        except InsufficientData:
            report.update({"trivial": False, "mu_inf": oracle.mu_inf, "mu_gap": None,
                           "op_gap_max": None, "eig_dist_max": None, "q": 2.0})
        except TrivialLimitComparison as exc:
            report.update({"trivial": True, "mu_inf": None,
                           "p_norm_decay": [[lam, v] for lam, v in exc.decay]})
    iofmt.write_json(os.path.join(outdir, "convergence_report.json"), report)
    for r in records:
        print(f"lambda={r.lam:<12g} mu={r.mu:<22.12g} s_eps_mass={r.s_eps_mass:.6g} "
              f"trivial={r.trivial}")
    print(f"divergent={report['divergent']}")
    _manifest(outdir, "sweep", label, spec.digest(),
              ["sweep.csv", "convergence_report.json", "mu_vs_lambda.dat",
               "seps_vs_lambda.dat"], t0, distinct_steps(spec))
    if not any(r.valid for r in records):
        print("error: no penalty gave a valid row (singular steps or no convergence)",
              file=sys.stderr)
        return 2
    return 0


def _level_of(spec, t: float, what: str) -> int:
    dt = spec.tgrid.dt
    j = int(round(t / dt))
    if not 0 <= j <= spec.tgrid.M:
        raise SchemaError(f"{what}={t} outside [0, T]")
    if abs(j * dt - t) > 1e-9 * spec.tgrid.T:
        print(f"note: {what}={t} snapped to level {j} (t={j * dt:g})", file=sys.stderr)
    return j


def cmd_kernel(args) -> int:
    t0 = time.time()
    spec, label = _resolve(args.target)
    outdir = _outdir(args)
    if args.s >= args.t:
        raise SchemaError(f"need s < t, got s={args.s}, t={args.t}")
    s_level = _level_of(spec, args.s, "s")
    t_level = _level_of(spec, args.t, "t")
    if s_level >= t_level:
        raise SchemaError("s and t snap to the same level; refine M or widen the gap")

    F = prepare(spec, args.lam)
    K = kernel_matrix(F, s_level, t_level)

    xs = spec.grid.interior()
    rows = ((xs[i], xs[j], K.entries[i, j])
            for i in range(len(xs)) for j in range(len(xs)))
    iofmt.write_csv(os.path.join(outdir, "kernel.csv"), ["x", "y", "k"], rows)

    # envelope fit on the unpenalized kernels over a ladder of widening gaps
    # (multiples of the requested gap: short gaps have fat discrete tails)
    F0 = F if args.lam == 0 else prepare(spec, 0.0)
    gap = t_level - s_level
    ladder = sorted({g for g in (gap, 2 * gap, 4 * gap, 8 * gap)
                     if g <= spec.tgrid.M - s_level})
    while len(ladder) < 3 and ladder[0] > 1:
        ladder.insert(0, max(1, ladder[0] // 2))
    kernels0 = [kernel_matrix(F0, s_level, s_level + g) for g in ladder]
    fit = fit_gaussian(kernels0)
    violation = max(fit.max_violation, envelope_violation(fit, K))
    mono = 0.0
    if args.lam > 0:
        mono = check_monotone_in_lambda(kernels0[ladder.index(gap)], K)
    iofmt.write_json(os.path.join(outdir, "gaussian_fit.json"), {
        "Mconst": fit.Mconst, "omega": fit.omega, "cconst": fit.cconst,
        "max_violation": violation, "monotone_violation": mono,
    })
    mid = len(xs) // 2
    print(f"kernel peak={K.entries.max():.6g}  diag mid={K.entries[mid, mid]:.6g}  "
          f"c={fit.cconst:.4f}  envelope violation={violation:.3e}")
    _manifest(outdir, "kernel", label, spec.digest(), ["kernel.csv", "gaussian_fit.json"], t0,
              distinct_steps(spec))
    if violation > 0:
        print("Gaussian envelope violated", file=sys.stderr)
        return 5
    return 0


def cmd_check(args) -> int:
    t0 = time.time()
    if args.refine < 1:
        raise SchemaError(f"--refine needs K >= 1, got {args.refine}")
    spec, label = _resolve(args.target, args.refine)
    # hashed beside the check on main's digest thread, or inline with one CPU
    digest = args.pool.submit(spec.digest).result if args.pool else spec.digest
    outdir = _outdir(args)
    mask = build_mask(spec.weight, spec.grid, spec.tgrid)
    report = check_assumption(mask)
    iofmt.atomic_write(os.path.join(outdir, "mask.txt"), mask_text(mask))
    iofmt.write_json(os.path.join(outdir, "admissibility_report.json"), {
        "regular_support": report.regular_support,
        "slices_nonempty": report.slices_nonempty,
        "components": report.components,
        "assumption_holds": report.assumption_holds,
        "failing_pair": report.failing_pair,
        "witness_length": len(report.witness.cells) if report.witness else None,
    })
    _manifest(outdir, "check", label, digest(),
              ["mask.txt", "admissibility_report.json"], t0)
    if not report.regular_support or not report.slices_nonempty:
        print("support irregular or an empty slice; limit theory does not apply")
        return 7
    if not report.assumption_holds:
        print(f"path condition fails: no forward path for pair {report.failing_pair}")
        return 6
    print(f"path condition holds; witness of {len(report.witness.cells)} cells; "
          f"{report.components} component(s)")
    return 0


def _add_common(p):
    p.add_argument("target", help="builtin scenario name or config path")
    p.add_argument("--out", help="output directory (default perevo_out)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="perevo", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--version", action="version", version=f"perevo {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eigen", help="principal eigenpair at one penalty")
    _add_common(p)
    p.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p.set_defaults(func=cmd_eigen)

    p = sub.add_parser("sweep", help="penalty sweep")
    _add_common(p)
    p.add_argument("--lambdas", default="0,1:1e5:x10",
                   help="comma list; 'a:b:xF' ramps geometrically")
    p.add_argument("--eps", type=float, default=0.5)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("kernel", help="kernel matrix and Gaussian envelope")
    _add_common(p)
    p.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("check", help="vanishing-set admissibility check")
    _add_common(p)
    p.add_argument("--refine", type=int, default=1,
                   help="rebuild the target on a K-times finer lattice (K >= 1)")
    p.set_defaults(func=cmd_check)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # check hashes its manifest digest on this pool's one thread, which
    # leaving the with block joins on every exit path; no pool with one CPU
    pool = (ThreadPoolExecutor(1, thread_name_prefix="perevo-digest")
            if column_workers() > 1 else contextlib.nullcontext())
    try:
        with pool as args.pool:
            return args.func(args)
    except PerevoError as exc:
        # command handlers deal with their own domain outcomes (exit 3/4/5/6/7);
        # anything escaping to here is a configuration or argument problem
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
