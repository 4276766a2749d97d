"""perevo benchmark: one workload per run, closed loop with one caller.

    python3 bench/run.py --workload {sweep,kernel,reach} --seed N --seconds S --trace {0,1}
    python3 bench/run.py --workload all ...   # each workload in its own process

Run it from the root of a perevo checkout; it imports perevo from ``src/``.
With ``--trace 0`` it measures the end-to-end metrics; with ``--trace 1`` it
alternates untraced passes with traced replays and reports the per-layer
metrics.  Times are scaled to a reference host speed, measured between
operations by a fixed computation that does not use perevo (``Calibration``).
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  A
fuller record (environment, sample counts, check details, and the spans of a
traced run) is written under ``.bench_out/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
NAMES = ("sweep", "kernel", "reach")
SETUP_REPEATS = 5
# One calibration round takes CAL_REF_S on the reference host (a quiet 2-core
# x86-64 VM); every reported time is wall time scaled to that host speed.
CAL_REF_S = 0.025
CAL_STEPS = 32     # solves per system in a round
CAL_COLUMNS = 256  # boolean columns labelled and matched in a round
CAL_SHARE = 0.1    # calibration time after each operation, as a share of it

END_TO_END = {
    "run_s": "s", "op_p50_s": "s", "op_tail_s": "s", "ops_per_s": "1/s",
    "setup_s": "s", "peak_rss_mb": "MB", "pass_frac": "ratio",
}
SECONDS = ("model.build_s", "operator.assemble_s", "evolve.prepare_s", "spectral.monodromy_s",
           "spectral.power_s", "spectral.eigenfunction_s", "limitflow.oracle_s",
           "limitflow.compare_s", "limitflow.sweep_overhead_s", "kernel.matrix_s", "kernel.fit_s",
           "kernel.envelope_s", "admissibility.mask_s", "admissibility.reach_s",
           "admissibility.text_s", "iofmt.write_s", "trace.run_s", "trace.overhead_s")
COUNTS = ("evolve.prepare_calls", "evolve.solves", "evolve.solve_columns", "spectral.monodromy_calls",
          "spectral.power_iterations", "spectral.trivial", "kernel.matrix_calls",
          "admissibility.cells", "admissibility.starts", "trace.spans")
PER_LAYER = {**{k: "s" for k in SECONDS}, **{k: "count" for k in COUNTS},
             "evolve.solve_bytes": "B", "iofmt.bytes_written": "B", "limitflow.limit_gap_rel": "ratio"}
# span name -> per-layer metric holding the sum of its durations in one pass
SPAN_METRIC = {"operator.assemble": "operator.assemble_s", "evolve.prepare": "evolve.prepare_s",
               "spectral.monodromy": "spectral.monodromy_s", "spectral.power": "spectral.power_s",
               "spectral.eigenfunction": "spectral.eigenfunction_s",
               "limitflow.oracle": "limitflow.oracle_s", "limitflow.compare": "limitflow.compare_s",
               "kernel.matrix": "kernel.matrix_s", "kernel.fit": "kernel.fit_s",
               "kernel.envelope": "kernel.envelope_s", "admissibility.mask": "admissibility.mask_s",
               "admissibility.reach": "admissibility.reach_s",
               "admissibility.text": "admissibility.text_s", "iofmt.write": "iofmt.write_s"}
# replay spans that together redo what one sweep() call computes
SWEEP_PARTS = ("evolve.prepare", "spectral.monodromy", "spectral.power", "spectral.eigenfunction")


def tail(samples):
    """Highest whole percentile from p50 up with at least ten samples above
    it (nearest rank), as (value, percentile, samples above).  Below 20
    samples no such percentile exists, and the tail is the maximum, reported
    as percentile 100 with 0 samples above."""
    xs = sorted(samples)
    n = len(xs)
    for p in range(99, 49, -1):
        rank = -(-p * n // 100)
        if n - rank >= 10:
            return xs[rank - 1], p, n - rank
    return xs[-1], 100, 0


def import_seconds() -> float:
    """Time of `import perevo` in a fresh interpreter, measured inside it."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import perevo; print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=ROOT, check=True,
                          capture_output=True, text=True, timeout=120)
    return float(done.stdout.split()[-1])


def blas_threads():
    """Threads of numpy's bundled OpenBLAS, or None when it cannot be asked."""
    import ctypes
    import glob
    import numpy as np
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    """Commit of the checkout, read from .git; None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    name = text[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(args):
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "blas_threads": blas_threads(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "python": platform.python_version(),
            "git_commit": git_commit(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "loop": "closed, 1 caller"}


class Calibration:
    """Host speed, measured between operations.

    On a host that is a share of a larger machine, such as the 2-core VM the
    bounds were set on, speed drifts by a quarter and more over minutes.  The
    drift moves every wall time of a run, though not every kind of code by
    the same amount.  A round is a fixed computation that
    does not use perevo, so no change to perevo moves it, made of the three
    kinds of work the workloads spend their time on, in about equal shares:
    tridiagonal scipy solves with n right-hand sides (n = 64 and 128),
    small-array numpy calls that label the runs of boolean columns and match
    them, as a level-by-level reachability sweep does, and a pure-Python
    queue flood fill.  Rounds run after every operation, outside its timing,
    for a tenth of its time, so they sample the host's speed through the run.
    Set-up times are scaled by CAL_REF_S / (median round time during set-up),
    and every other time by CAL_REF_S / (median round time after set-up).
    A scale per pass would follow faster swings, but on `reach`, whose passes
    are two calls of 0.3 s and 8 s, the rounds after a pass sample too short
    a stretch of it, and per-pass scales made the runs spread more.
    """

    def __init__(self):
        import numpy as np
        from scipy.linalg import solve_banded
        import reference
        self._np, self._solve, self._flood = np, solve_banded, reference.flood
        self.systems = []
        for n in (64, 128):
            r = (n + 1) ** 2 / 512.0   # dt / h^2 of a unit interval with M = 512
            ab = np.empty((3, n))
            ab[0], ab[1], ab[2] = -r, 1.0 + 2.0 * r, -r
            self.systems.append((n, ab))
        rng = np.random.default_rng(0)
        self.columns = list(rng.random((CAL_COLUMNS, 130)) > 0.2)
        self.free = rng.random((100, 100)) > 0.3
        self.start = (int(np.flatnonzero(self.free[:, 0])[0]), 0)
        self.samples = []
        self.round()  # first-call costs
        self.samples.clear()

    def round(self) -> float:
        np = self._np
        t0 = time.perf_counter()
        for n, ab in self.systems:
            X = np.eye(n)
            for _ in range(CAL_STEPS):
                X = self._solve((1, 1), ab, X)
        prev = self.columns[-1]
        for col in self.columns:
            runs = np.cumsum(np.concatenate(([False], col[1:] & ~col[:-1])))
            np.isin(runs, runs[col & prev])
            prev = col
        self._flood(self.free, self.start, forward_only=False)
        took = time.perf_counter() - t0
        self.samples.append(took)
        return took

    def after(self, busy_s: float):
        """At least one round, and rounds for CAL_SHARE of busy_s."""
        spent = self.round()
        while spent < CAL_SHARE * busy_s:
            spent += self.round()

    def scale(self, start: int, stop: int | None = None) -> float:
        """Reference seconds per wall second, from the rounds samples[start:stop]."""
        return CAL_REF_S / statistics.median(self.samples[start:stop])


def run_pass(wl, cal):
    """One untraced pass: (outputs, op times, pass time).  An operation that
    raises yields its exception as output, and the pass goes on.  The pass
    time is the sum of its operation times, without the calibration rounds."""
    raw, times = [], []
    for label, fn in wl.ops():
        t0 = time.perf_counter()
        try:
            raw.append((label, fn()))
        except Exception as exc:
            raw.append((label, exc))
        times.append(time.perf_counter() - t0)
        cal.after(times[-1])
    pass_s = sum(times)
    outputs = []
    for label, r in raw:
        try:
            outputs.append(r if isinstance(r, Exception) else wl.collect(label, r))
        except OSError as exc:  # the operation wrote no output
            outputs.append(exc)
    return outputs, times, pass_s


def verdicts(wl, outputs):
    """One verdict per operation; an operation that raised fails."""
    from workloads import Verdict
    return [Verdict(False, f"raised {out!r}") if isinstance(out, Exception) else v
            for out, v in zip(outputs, wl.check(outputs))]


def identical(wl, untraced, replayed) -> bool:
    try:
        return wl.same(untraced, replayed)
    except Exception:  # the untraced operation raised
        return False


def span_sums(spans):
    sums = {}
    for name, start, end, _, _ in spans:
        sums[name] = sums.get(name, 0.0) + (end - start)
    return sums


class Tally:
    """Checked operations of a run."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.unexpected = []
        self.known = {}

    def add(self, labels, verdicts):
        for label, v in zip(labels, verdicts):
            self.attempted += 1
            if v.ok:
                continue
            self.failed += 1
            if v.known:
                self.known.setdefault(label, v.known)
            else:
                self.unexpected.append(f"{label}: {v.detail}")


def measure(args):
    sys.path.insert(0, str(SRC))
    os.environ.pop("PEREVO_OUT", None)  # would redirect the CLI's output directory
    import workloads

    out_dir = OUT / f"{args.workload}-seed{args.seed}"
    wl = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    tracer = workloads.Tracer() if args.trace else None

    cal = Calibration()
    imports, builds = [], []
    for _ in range(SETUP_REPEATS):
        imports.append(import_seconds())
        with tracer.span("model.build") if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            wl.build()
            builds.append(time.perf_counter() - t0)
        cal.after(imports[-1] + builds[-1])
    setup_rounds = len(cal.samples)
    t0 = time.perf_counter()
    wl.references()
    reference_s = time.perf_counter() - t0

    labels = [label for label, _ in wl.ops()]
    tally = Tally()
    try:  # warm-up: lazy imports and first-call costs; a failure shows in the passes
        wl.ops()[0][1]()
    except Exception:
        pass

    # wall seconds, scaled to the reference host at the end
    passes, op_times, traced, layers = [], [], [], []
    by_label = {label: [] for label in labels}
    while sum(passes) + sum(traced) < args.seconds:
        outputs, times, pass_s = run_pass(wl, cal)
        passes.append(pass_s)
        op_times += times
        for label, t in zip(labels, times):
            by_label[label].append(t)
        tally.add(labels, verdicts(wl, outputs))
        if tracer is None:
            continue
        first = len(tracer.spans)
        tracer.counts = {}
        t0 = time.perf_counter()
        try:
            replayed = wl.replay(tracer)
        except Exception as exc:
            replayed = [exc] * len(labels)
        traced.append(time.perf_counter() - t0)
        tracer.op = None
        wl.probe(tracer)
        cal.after(traced[-1])
        replay_verdicts = verdicts(wl, replayed)
        for k, (a, b) in enumerate(zip(outputs, replayed)):
            if replay_verdicts[k].ok and not identical(wl, a, b):
                replay_verdicts[k] = workloads.Verdict(False, "replay differs from the untraced output")
        tally.add(labels, replay_verdicts)
        sums = span_sums(tracer.spans[first:])
        layer = {metric: sums.get(name, 0.0) for name, metric in SPAN_METRIC.items()}
        layer.update(tracer.counts)
        sweep_s = [o["sweep_s"] for o in outputs if isinstance(o, dict) and "sweep_s" in o]
        layer["limitflow.sweep_overhead_s"] = (
            sum(sweep_s) - sum(sums.get(name, 0.0) for name in SWEEP_PARTS) if sweep_s else 0.0)
        layer["trace.spans"] = len(tracer.spans) - first
        layers.append(layer)

    try:
        extras = wl.extras(outputs)
    except Exception as exc:  # an operation of the last pass failed
        extras = {"extras_error": repr(exc)}
    setup_scale, run_scale = cal.scale(0, setup_rounds), cal.scale(setup_rounds)
    passed = tally.attempted - tally.failed
    tail_s, pct, beyond = tail(op_times)
    if tracer is None:
        metrics = {
            "run_s": statistics.median(passes) * run_scale,
            "op_p50_s": statistics.median(
                statistics.median(ts) for ts in by_label.values()) * run_scale,
            "op_tail_s": tail_s * run_scale,
            "ops_per_s": (len(op_times) - tally.failed) / (sum(passes) * run_scale),
            "setup_s": (statistics.median(imports) + statistics.median(builds)) * setup_scale,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_frac": passed / tally.attempted,
        }
        units = END_TO_END
    else:
        metrics = {k: 0.0 for k in PER_LAYER}
        for k in set().union(*layers):
            metrics[k] = statistics.median(layer.get(k, 0) for layer in layers)
        metrics["trace.run_s"] = statistics.median(traced)
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(passes)
        for k in SECONDS:
            metrics[k] *= run_scale
        metrics["model.build_s"] = statistics.median(builds) * setup_scale
        metrics["limitflow.limit_gap_rel"] = extras.get("limit_gap_rel", 0.0)
        units = PER_LAYER

    record = {
        "environment": environment(args),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "failed_frac": tally.failed / tally.attempted,
        "known_defects": tally.known,
        "unexpected_failures": tally.unexpected,
        "samples": {"passes": len(passes), "ops": len(op_times), "traced_passes": len(traced),
                    "setup_repeats": SETUP_REPEATS, "tail_percentile": pct,
                    "tail_samples_above": beyond},
        # wall seconds, not scaled
        "setup": {"import_s": imports, "build_s": builds, "reference_s": reference_s},
        "pass_s": passes, "traced_pass_s": traced, "op_s": op_times,
        "calibration": {"ref_s": CAL_REF_S, "setup_scale": setup_scale, "run_scale": run_scale,
                        "setup_rounds": setup_rounds, "round_s": cal.samples},
        "extras": extras,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"result-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        (out_dir / "spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "op"], "spans": tracer.spans}) + "\n")

    report(record)
    return {"correct": not tally.unexpected, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": record["metrics"]}


def report(record):
    env, s = record["environment"], record["samples"]
    print(f"workload={env['workload']} seed={env['seed']} trace={env['trace']} "
          f"nproc={env['nproc']} blas_threads={env['blas_threads']} numpy={env['numpy']} "
          f"scipy={env['scipy']} python={env['python']} commit={env['git_commit']}")
    print(f"passes={s['passes']} ops={s['ops']} traced_passes={s['traced_passes']} "
          f"setup_repeats={s['setup_repeats']} op_tail=p{s['tail_percentile']} "
          f"({s['tail_samples_above']} samples above)")
    c = record["calibration"]
    print(f"calibration: {len(c['round_s'])} rounds against {c['ref_s']} s; scale setup "
          f"{c['setup_scale']:.4f}, run {c['run_scale']:.4f}; unscaled median pass "
          f"{statistics.median(record['pass_s']):.6g} s")
    for name, m in record["metrics"].items():
        print(f"  {name:<30} {m['value']:<14.6g} {m['unit']}")
    print(f"  {'failed_frac':<30} {record['failed_frac']:<14.6g} ratio")
    for k, v in sorted(record["extras"].items()):
        print(f"  {k:<30} {v}")
    for label, why in sorted(record["known_defects"].items()):
        print(f"known defect {label}: {why}")
    for line in record["unexpected_failures"][:20]:
        print(f"FAILED {line}")


def run_all(args):
    """Every workload in its own process, so peak RSS is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        done = subprocess.run([sys.executable, __file__, "--workload", name, "--seed",
                               str(args.seed), "--seconds", str(args.seconds), "--trace",
                               str(args.trace)], cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {done.returncode}", file=sys.stderr)
            return None
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return merged


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "perevo" / "__init__.py").is_file():
        print(f"error: no perevo sources under {SRC}; run from a perevo checkout",
              file=sys.stderr)
        return 2
    result = run_all(args) if args.workload == "all" else measure(args)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
