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
from .sampling import (
    GradientBox,
    LipschitzProfile,
    StationaryPointError,
    compute_safe_sampling,
)
from .tracker import TrackerSetupError


def _setup_logging() -> None:
    level = os.environ.get("ADASAMP_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _read_vector(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as handle:
        tokens = handle.read().split()
    try:
        return np.array([float(t) for t in tokens])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _read_spec(args) -> harness.ExperimentSpec | None:
    """The validated spec of the given config, or None after printing its problems."""
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: {args.config}: {exc.strerror}", file=sys.stderr)
        return None
    try:
        return harness.validate_spec(text)
    except harness.SpecValidationError as exc:
        _print_problems(exc)
        return None


def _print_problems(exc: harness.SpecValidationError) -> None:
    for problem in exc.problems:
        print(f"error: {problem}", file=sys.stderr)


def _cmd_run(args) -> int:
    spec = _read_spec(args)
    if spec is None:
        return 2
    lowest = args.seed + min(min(run.seeds) for run in spec.runs)
    if lowest < 0:
        print(f"error: --seed {args.seed} makes run seed {lowest} negative", file=sys.stderr)
        return 2
    try:
        paths = harness.run_experiment(
            spec, out_dir=args.out_dir, jobs=args.jobs, base_seed=args.seed
        )
    except LibsvmParseError as exc:
        print(f"error: {spec.data.path}: {exc}", file=sys.stderr)
        return 1
    except harness.SpecValidationError as exc:
        _print_problems(exc)
        return 1
    except (TrackerSetupError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in paths:
        print(path)
    return 0


def _cmd_validate(args) -> int:
    spec = _read_spec(args)
    if spec is None:
        return 2
    print(f"ok: {len(spec.runs)} run(s), loss={spec.loss}, reg={spec.reg}, lambda={spec.lam}")
    return 0


def _cmd_sample_demo(args) -> int:
    try:
        box = GradientBox(_read_vector(args.lower_file), _read_vector(args.upper_file))
        profile = LipschitzProfile(_read_vector(args.lipschitz_file))
        solution = compute_safe_sampling(box, profile)
        if args.oracle:
            # Imported here: the oracle pulls in scipy.optimize, which no
            # other command needs.  It runs before anything is printed, so
            # a box it cannot enumerate prints only the error.
            from .oracle import brute_force_minimax

            ref_value, _ = brute_force_minimax(box, profile)
    except (ValueError, StationaryPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("certificate:", " ".join(repr(float(v)) for v in solution.certificate))
    print("probabilities:", " ".join(repr(float(v)) for v in solution.probabilities))
    print(f"value: {solution.value!r}")
    print(f"stepsize: {solution.stepsize!r}")
    if args.oracle:
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
    p_run.add_argument("config")
    p_run.add_argument("--out-dir", default=None)
    p_run.add_argument("--jobs", type=int, default=1)
    p_run.add_argument("--seed", type=int, default=0, help="base seed added to per-run seeds")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="validate a config without running")
    p_val.add_argument("config")
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
