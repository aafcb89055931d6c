"""Batch command line front-end.

Fits a GLMM from a long-format CSV and writes summary/trace/state/diagnostic
files, or generates one of the named synthetic datasets. Exit codes:
0 success, 2 configuration error, 3 data error, 4 numerical divergence.
"""

import argparse
import os
import sys

from . import engine, fileio, model, posterior, recombine, simulate
from .exceptions import ConfigError, DataError, GlmmVbError, InvalidVError


def build_parser():
    p = argparse.ArgumentParser(prog="glmmvb", description=__doc__)
    p.add_argument("--data", help="input CSV (long format, one row per observation)")
    p.add_argument("--family", choices=["poisson", "binomial", "bernoulli"],
                   help="response family")
    p.add_argument("--trials-col", default=None,
                   help="binomial trials column (rejected for poisson, ignored for bernoulli)")
    p.add_argument("--group-col", default="group", help="subject/group id column")
    p.add_argument("--response-col", default="y", help="response column")
    p.add_argument("--fixed", default="", help="comma-separated fixed-effect columns")
    p.add_argument("--random", default="", help="comma-separated random-effect columns")
    p.add_argument("--intercept", choices=["x", "z", "both", "none"], default="both",
                   help="where to inject an all-ones intercept column")
    p.add_argument("--method", choices=["a1", "a2"], default="a2",
                   help="transform construction: a1 regularized-estimate Taylor, "
                        "a2 conditional-mode Newton")
    p.add_argument("--prior", choices=["default", "normal-omega", "file"], default="default")
    p.add_argument("--prior-file", default=None, help="prior file (--prior file)")
    p.add_argument("--omega-prior-sd", type=float, default=None,
                   help="sd of the normal prior on omega (--prior normal-omega; default 10)")
    p.add_argument("--sigma-beta2", type=float, default=None,
                   help="prior variance of each beta (--prior default or normal-omega; "
                        f"default {model.DEFAULT_SIGMA_BETA2:g})")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shards", type=int, default=1, help="V for divide and recombine")
    p.add_argument("--max-iter", type=int, default=200_000)
    p.add_argument("--draws", type=int, default=50_000,
                   help="posterior simulation draws for reporting (at least 2)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--simulate", default=None, metavar="SCENARIO",
                   choices=sorted(simulate.SCENARIOS),
                   help="write a synthetic dataset instead of fitting")
    p.add_argument("--simulate-n", type=int, default=simulate.N)
    return p


def _make_prior(args, data):
    """The prior that --prior selects. A prior flag that it does not read
    raises ConfigError, as does --prior file without --prior-file."""
    reads = {"default": ("sigma_beta2",), "normal-omega": ("sigma_beta2", "omega_prior_sd"),
             "file": ("prior_file",)}[args.prior]
    for flag in ("prior_file", "sigma_beta2", "omega_prior_sd"):
        if getattr(args, flag) is not None and flag not in reads:
            raise ConfigError(f"--prior {args.prior} does not read --{flag.replace('_', '-')}")
    if args.prior == "file":
        if args.prior_file is None:
            raise ConfigError("--prior file needs --prior-file")
        return fileio.read_prior_file(args.prior_file, data.r)
    kw = {key: val for key, val in (("sigma_beta2", args.sigma_beta2), ("sd", args.omega_prior_sd))
          if val is not None}
    if args.prior == "default":
        return model.default_prior(data, **kw)
    return model.normal_omega_prior(data.r, **kw)


def run(args):
    if args.simulate:
        data, truth = simulate.simulate_dataset(args.simulate, args.seed, n=args.simulate_n)
        path = fileio.write_simulation(args.out, args.simulate, args.seed, data, truth)
        print(f"wrote {path} ({data.total_obs} rows, {data.n} groups)")
        return 0
    if not args.data or not args.family:
        raise ConfigError("--data and --family are required unless --simulate is given")
    if args.draws < 2:
        raise ConfigError("--draws must be >= 2")
    if args.family == "binomial" and not args.trials_col:
        raise ConfigError("binomial fits need --trials-col")
    if args.family == "poisson" and args.trials_col:
        raise ConfigError("--trials-col is for binomial fits; a Poisson fit reads no trials")
    data = fileio.load_csv(args.data, args.family, args.group_col,
                           fileio._split_cols(args.fixed), fileio._split_cols(args.random),
                           response_col=args.response_col, trials_col=args.trials_col,
                           intercept=args.intercept)
    if not 1 <= args.shards <= data.n:
        raise InvalidVError(f"--shards must be in [1, {data.n}]")
    prior = _make_prior(args, data)
    config = engine.FitConfig(method=args.method, seed=args.seed, max_iter=args.max_iter)
    os.makedirs(args.out, exist_ok=True)

    if args.shards == 1:
        result = engine.fit(data, prior, config)
        summary = posterior.simulate_b(data, prior, result.state, args.method,
                                       args.draws, args.seed)
        fileio.write_summary(os.path.join(args.out, "summary.csv"), summary,
                             args.method, result.n_iter, result.wall_time, result.elbo,
                             result.converged, result.start_kind)
        fileio.write_trace(os.path.join(args.out, "trace.csv"),
                           result.window_means, config.window)
        fileio.write_state(os.path.join(args.out, "state.txt"), result.state,
                           args.method, data.family.name, args.seed, result.converged)
        fileio.write_subject_diagnostics(os.path.join(args.out, "subjects.csv"),
                                         data, summary)
        print(f"converged={result.converged} iterations={result.n_iter} "
              f"elbo={result.elbo:.4f}")
    else:
        sharded = recombine.fit_sharded(data, prior, config, args.shards)
        scales = posterior.factor_scales(sharded.combined, data.p, data.r,
                                         args.draws, args.seed)
        fileio.write_sharded_summary(os.path.join(args.out, "summary.csv"), sharded,
                                     args.method, scales)
        for v, res in enumerate(sharded.shard_results):
            fileio.write_state(os.path.join(args.out, f"state_shard{v}.txt"),
                               res.state, args.method, data.family.name, args.seed,
                               res.converged)
            fileio.write_trace(os.path.join(args.out, f"trace_shard{v}.csv"),
                               res.window_means, config.window)
        print(f"combined {args.shards} shards; "
              f"per-shard elbo: {[round(r.elbo, 2) for r in sharded.shard_results]}")
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(args)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except DataError as err:
        print(f"data error: {err}", file=sys.stderr)
        return 3
    except GlmmVbError as err:  # every other package error is numerical
        print(f"numerical failure: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
