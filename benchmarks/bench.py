"""glmmvb benchmark: fit workloads measured end to end, or traced per layer.

Run from the root of a glmmvb checkout:

    python3 benchmarks/bench.py --workload seeds-a1 --seed 3 --seconds 1 --trace 0
    python3 benchmarks/bench.py --workload all

One call runs one workload. With --trace 0 it makes passes (set-up, fit,
simulation, checks) until --seconds have passed, always at least one whole
pass, then repeats the simulation, and reports the end-to-end metrics.
With --trace 1 it fits once untraced, then makes one pass with timing
wrappers installed, and reports the per-layer metrics. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; a failed operation or check makes the exit code non-zero.
``--workload all`` runs every workload in a child process and prints one
table.

The package is imported from ``src/`` next to this directory and nowhere
else; the benchmark exits with code 2 when it is missing. Results, spans
and scratch files go to ``benchmarks/results/``.
"""

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 15       # set-ups timed at the start and again at the end of a run,
SETUP_SECONDS = 0.5      # ... at least this many and for at least this long
SIM_SECONDS = 1.0        # repeat the simulation at least this long after the passes
SIM_MIN_CALLS = 3        # ... and at least this many times
BREAKDOWN_TOL = 0.10

# name -> unit; the same names, in this order, as BENCHMARK.json
END_TO_END = {
    "setup_s": "s", "fit_s": "s", "fit_iters": "count", "step_us": "us",
    "elbo": "nats", "sim_accept_frac": "ratio", "total_s": "s", "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="workload name, or 'all'")
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed; omitted: the workload's default seeds")
    p.add_argument("--seconds", type=float, default=1.0,
                   help="make passes until this many seconds have passed (at least one)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def median(values):
    return float(statistics.median(values))


# ---------------------------------------------------------------------------
# environment stamp


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _tree_sha256(top):
    digest = hashlib.sha256()
    for path in sorted(p for p in top.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(top)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def host_stamp():
    import numpy as np
    import scipy
    return {
        "git_sha": _git_sha(),
        "src_sha256": _tree_sha256(SRC / "glmmvb"),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# one workload


def import_package():
    """Put the checkout's src/ first on sys.path and import glmmvb from it.

    Returns an error message when the package is missing or resolves elsewhere.
    """
    if not (SRC / "glmmvb" / "__init__.py").is_file():
        return f"no glmmvb package under {SRC}; run from a glmmvb checkout"
    for var in BLAS_VARS:  # one core per run, as the CLI's workers=1 path uses
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import glmmvb
    if Path(glmmvb.__file__).resolve().parent != (SRC / "glmmvb").resolve():
        return f"imported glmmvb from {glmmvb.__file__}, not from {SRC}"
    return None


def fingerprint(results):
    """(iterations, ELBO) of every fit, compared bit for bit."""
    return tuple((r.n_iter, r.elbo) for r in results)


def sim_fingerprint(sims):
    digest = hashlib.sha256()
    for s in sims:
        for arr in (s.global_mean, s.scale_mean, s.b_mean, s.b_sd):
            digest.update(arr.tobytes())
    return digest.hexdigest()


def one_pass(w, seeds, checks):
    """Set up, fit, simulate once and finish; raw times and outputs."""
    clock = time.perf_counter
    t0 = clock()
    inputs = checks.attempt("setup", w.setup, seeds)
    t1 = clock()
    fitted, results = checks.attempt("fit", w.fit, inputs, seeds)
    t2 = clock()
    sims = checks.attempt("simulate_b", w.simulate, inputs, seeds, fitted)
    for k in range(len(results) + len(sims)):
        checks.op(f"fit/simulate {k}", True)
    t3 = clock()
    with tempfile.TemporaryDirectory(dir=RESULTS) as scratch:
        err = checks.attempt("finish", w.finish, inputs, seeds, fitted, sims, checks, scratch)
    t4 = clock()
    return {"inputs": inputs, "fitted": fitted, "results": results, "sims": sims,
            "setup_s": t1 - t0, "fit_s": t2 - t1, "finish_s": t4 - t3, "global_err": err,
            "wall_s": t4 - t0}


def time_setups(w, seeds, times):
    """Set up at least SETUP_REPEATS times and for at least SETUP_SECONDS;
    append each set-up's time scaled by the host factor measured before it."""
    import tracing
    t_begin = time.perf_counter()
    for k in itertools.count():
        if k >= SETUP_REPEATS and time.perf_counter() - t_begin >= SETUP_SECONDS:
            return
        factor = tracing.host_factor()
        t0 = time.perf_counter()
        w.setup(seeds)
        times.append((time.perf_counter() - t0) * factor)


def measure(w, seeds, seconds, checks):
    """Untraced passes for `seconds`, then repeated simulations; end-to-end metrics.

    Host slowdowns on a shared machine reach 2x for seconds at a time, so
    every time is scaled by tracing's host factor measured next to it: fit
    steps by the probe before each one (tracing.quiet_fit_s), set-ups and
    simulations by probes made just before and after. Set-up, fit and
    simulation report the median over their repeats. Each pass and each
    repeated simulation runs under a fresh Tracer that holds only the QUIET
    wrappers.
    """
    import tracing
    setup_times, passes, fit_passes, sim_times = [], [], [], []
    time_setups(w, seeds, setup_times)
    t_begin = time.perf_counter()
    while not passes or time.perf_counter() - t_begin < seconds:
        tracer = tracing.Tracer()
        with tracing.installed(tracer.wrappers(tracing.QUIET)):
            p = one_pass(w, seeds, checks)
        fit_passes.append((tracer.fit_steps(), p["fit_s"]))
        if passes:
            checks.op("fit repeats", fingerprint(p["results"]) == fingerprint(
                passes[0]["results"]), f"pass {len(passes)} differs from pass 0")
        passes.append(p)
    first = passes[0]
    sim_print = sim_fingerprint(first["sims"])
    t_sim = time.perf_counter()
    while len(sim_times) < SIM_MIN_CALLS or time.perf_counter() - t_sim < SIM_SECONDS:
        tracer = tracing.Tracer()
        before = tracing.host_factor()
        with tracing.installed(tracer.wrappers(tracing.QUIET)):
            sims = checks.attempt("simulate_b", w.simulate, first["inputs"], seeds, first["fitted"])
        factor = (before + tracing.host_factor()) / 2
        sim_times.append(sum(tracer.durations("posterior.simulate_b")) / 1e9 * factor)
        checks.op("simulation repeats", sim_fingerprint(sims) == sim_print,
                  "a repeated simulate_b call gave other draws")
    time_setups(w, seeds, setup_times)

    fit_s, step_us = tracing.quiet_fit_s(fit_passes)
    setup_s, sim_s = median(setup_times), median(sim_times)
    finish_s = min(p["finish_s"] for p in passes)
    draws = sum(s.n_draws for s in first["sims"])
    rejected = sum(s.n_rejected for s in first["sims"])
    metrics = {
        "setup_s": setup_s,
        "fit_s": fit_s,
        "fit_iters": sum(r.n_iter for r in first["results"]),
        "step_us": step_us,
        "elbo": sum(r.elbo for r in first["results"]),
        "sim_accept_frac": draws / (draws + rejected),
        "total_s": setup_s + fit_s + sim_s + finish_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extras = {
        "sim_s": sim_s,
        "finish_s": finish_s,
        "global_err": first["global_err"],
        "sim_reject_frac": rejected / (draws + rejected),
        "passes": len(passes),
        "sim_calls": len(sim_times),
        "fit_wall_s": median([p["fit_s"] for p in passes]),
        "pass_wall_s": median([p["wall_s"] for p in passes]),
    }
    raw = {"setup_s": setup_times, "sim_s": sim_times,
           "fit_wall_s": [p["fit_s"] for p in passes],
           "finish_s": [p["finish_s"] for p in passes],
           "fit_iters": [[r.n_iter for r in p["results"]] for p in passes],
           "step_median_us": [[statistics.median(st) / 1e3 for st, _, _ in fits]
                              for fits, _ in fit_passes],
           "probe_median_us": [[statistics.median(pr) / 1e3 for _, pr, _ in fits]
                               for fits, _ in fit_passes]}
    return metrics, extras, raw


def measure_traced(w, seeds, spans_path, checks):
    """One untraced fit, then one traced pass; per-layer metrics."""
    import tracing
    quiet = tracing.Tracer()
    inputs = checks.attempt("setup", w.setup, seeds)
    with tracing.installed(quiet.wrappers(tracing.QUIET)):
        t0 = time.perf_counter()
        _, ref_results = checks.attempt("fit", w.fit, inputs, seeds)
        ref_wall = time.perf_counter() - t0
    tracer = tracing.Tracer()
    with tracing.installed(tracer.wrappers()) as missing:
        p = one_pass(w, seeds, checks)
    checks.op("every wrapper target exists", not missing,
              f"the package has no {', '.join(missing)}")
    metrics = tracing.layer_metrics(tracer)
    draws = sum(s.n_draws for s in p["sims"])
    metrics["posterior.accept_ratio"] = draws / (draws + sum(s.n_rejected for s in p["sims"]))
    untraced_s, _ = tracing.quiet_fit_s([(quiet.fit_steps(), ref_wall)])
    traced_s, _ = tracing.quiet_fit_s([(tracer.fit_steps(), p["fit_s"])])
    metrics["trace.fit_overhead"] = traced_s / untraced_s - 1.0
    ratio = metrics.pop("engine.step.breakdown_ratio")
    checks.op("traced fit reproduces the untraced fit",
              fingerprint(p["results"]) == fingerprint(ref_results),
              f"{fingerprint(p['results'])} vs {fingerprint(ref_results)}")
    checks.op("per-layer step self times add up to the step",
              abs(ratio - 1.0) <= BREAKDOWN_TOL, f"ratio {ratio:.3f}")
    tracer.save(spans_path)
    extras = {"engine.step.breakdown_ratio": ratio,
              "untraced_fit_s": untraced_s, "traced_fit_s": traced_s,
              "spans": len(tracer.name), "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, extras, {}


def run_one(args):
    import tracing
    from workloads import WORKLOADS, Abort, Checks
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    seeds = w.seeds(args.seed)
    RESULTS.mkdir(exist_ok=True)
    tag = f"{w.name}-seed{'default' if args.seed is None else args.seed}-trace{args.trace}"
    stamp = host_stamp()
    load_start = os.getloadavg()[0]
    t0 = time.perf_counter()
    checks = Checks()
    units = tracing.PER_LAYER if args.trace else END_TO_END
    try:
        if args.trace:
            metrics, extras, raw = measure_traced(w, seeds, RESULTS / f"spans-{tag}.npz", checks)
        else:
            metrics, extras, raw = measure(w, seeds, args.seconds, checks)
    except Abort:
        metrics, extras, raw = {}, {}, {}
    stamp.update(loadavg_1m_start=load_start, loadavg_1m_end=os.getloadavg()[0],
                 wall_s=time.perf_counter() - t0)
    attempted, failures = checks.attempted, checks.failures
    failed = len(failures)
    extras["fail_frac"] = failed / max(attempted, 1)
    correct = failed == 0 and set(units) <= set(metrics)
    record = {"workload": w.name, "seed": args.seed, "seeds": seeds, "trace": args.trace,
              "seconds": args.seconds, "host": stamp, "correct": correct,
              "attempted": attempted, "failed": failed, "failures": failures,
              "metrics": metrics, "units": units, "extras": extras, "raw": raw}
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    for msg in failures:
        print(f"FAILED {w.name}: {msg}")
    for name in units:
        if name in metrics:
            print(f"{w.name:16s} {name:40s} {metrics[name]:>16.6g} {units[name]}")
    for name, value in extras.items():
        if isinstance(value, (int, float)):
            print(f"{w.name:16s} {name:40s} {value:>16.6g}")
    result = {"correct": correct, "attempted": max(attempted, 1), "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units if name in metrics}}
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args):
    """Every workload in its own process; one table; non-zero if any fails."""
    from workloads import WORKLOADS
    status = 0
    table = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if done.returncode != 0 or result is None or not result["correct"]:
            status = 1
            print("\n".join(ln for ln in lines if ln.startswith("FAILED")) or
                  f"FAILED {name}: exit code {done.returncode}")
        for metric, entry in (result or {}).get("metrics", {}).items():
            table.append((name, metric, entry["value"], entry["unit"]))
    for name, metric, value, unit in table:
        print(f"{name:16s} {metric:40s} {value:>16.6g} {unit}")
    print("all workloads passed their checks" if status == 0 else "some checks FAILED")
    return status


def main(argv=None):
    args = parse_args(argv)
    error = import_package()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
