"""Command line interface.

Subcommands: ``run`` executes an experiment config, ``validate`` checks one
without running, ``sample-demo`` prints the safe-sampling solution for
bound vectors given in files, and ``bench-sampler`` times the solver at a
given dimension.  Set ADASAMP_LOG=debug|info|warning for verbosity.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from . import harness
from .data import LibsvmParseError
from .sampling import GradientBox, LipschitzProfile, compute_safe_sampling


def _setup_logging() -> None:
    level = os.environ.get("ADASAMP_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _read_vector(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as handle:
        tokens = handle.read().split()
    return np.array([float(t) for t in tokens])


def _config_path(args) -> str:
    path = args.config_flag or args.config
    if not path:
        raise SystemExit("error: give a config file (positional or --config)")
    return path


def _cmd_run(args) -> int:
    with open(_config_path(args), "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        spec = harness.validate_spec(text)
    except harness.SpecValidationError as exc:
        for problem in exc.problems:
            print(f"error: {problem}", file=sys.stderr)
        return 2
    try:
        paths = harness.run_experiment(
            spec, out_dir=args.out_dir, jobs=args.jobs, base_seed=args.seed
        )
    except LibsvmParseError as exc:
        print(f"error: {spec.data.path}: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in paths:
        print(path)
    return 0


def _cmd_validate(args) -> int:
    with open(_config_path(args), "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        spec = harness.validate_spec(text)
    except harness.SpecValidationError as exc:
        for problem in exc.problems:
            print(f"error: {problem}", file=sys.stderr)
        return 2
    print(f"ok: {len(spec.runs)} run(s), loss={spec.loss}, reg={spec.reg}, lambda={spec.lam}")
    return 0


def _cmd_sample_demo(args) -> int:
    lower = _read_vector(args.lower_file)
    upper = _read_vector(args.upper_file)
    values = _read_vector(args.lipschitz_file)
    box = GradientBox(lower, upper)
    profile = LipschitzProfile(values)
    solution = compute_safe_sampling(box, profile)
    print("certificate:", " ".join(repr(float(v)) for v in solution.certificate))
    print("probabilities:", " ".join(repr(float(v)) for v in solution.probabilities))
    print(f"value: {solution.value!r}")
    print(f"stepsize: {solution.stepsize!r}")
    if args.oracle:
        # Imported here: the oracle pulls in scipy.optimize, which no
        # other command needs.
        from .oracle import brute_force_minimax

        ref_value, _ = brute_force_minimax(box, profile)
        print(f"oracle value: {ref_value!r}")
        print(f"abs diff: {abs(ref_value - solution.value)!r}")
    return 0


def _cmd_bench(args) -> int:
    best = harness.bench_sampler(args.n, args.reps, seed=args.seed)
    print(f"n={args.n} reps={args.reps} best_seconds={best!r}")
    return 0


def main(argv=None) -> int:
    _setup_logging()
    parser = argparse.ArgumentParser(
        prog="adasamp",
        description="GLM solvers with safe adaptive importance sampling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config", nargs="?", default=None)
    p_run.add_argument("--config", dest="config_flag", default=None)
    p_run.add_argument("--out-dir", default=None)
    p_run.add_argument("--jobs", type=int, default=1)
    p_run.add_argument("--seed", type=int, default=0, help="base seed added to per-run seeds")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="validate a config without running")
    p_val.add_argument("config", nargs="?", default=None)
    p_val.add_argument("--config", dest="config_flag", default=None)
    p_val.set_defaults(func=_cmd_validate)

    p_demo = sub.add_parser("sample-demo", help="print the safe sampling for bound files")
    p_demo.add_argument("lower_file")
    p_demo.add_argument("upper_file")
    p_demo.add_argument("lipschitz_file")
    p_demo.add_argument("--oracle", action="store_true", help="cross-check against enumeration")
    p_demo.set_defaults(func=_cmd_sample_demo)

    p_bench = sub.add_parser("bench-sampler", help="time one safe-sampling solve")
    p_bench.add_argument("n", type=int)
    p_bench.add_argument("reps", type=int)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.set_defaults(func=_cmd_bench)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
