"""Experiment runner: config parsing, run execution, CSV traces.

A config file is flat INI text: one ``[data]`` section, one ``[problem]``
section, an optional ``[output]`` section and any number of ``[run NAME]``
sections.  Every run gets one trace CSV per seed plus a line in the
summary CSV.  CSV writes are atomic (temp file + rename) and byte-stable
across repeats except for the wall-clock columns.
"""

from __future__ import annotations

import concurrent.futures
import configparser
import csv
import difflib
import logging
import math
import os
import tempfile
from dataclasses import dataclass, replace

import numpy as np

from . import data as data_mod
from . import glm, solvers

logger = logging.getLogger("adasamp.harness")

TRACE_COLUMNS = (
    "iteration",
    "epoch",
    "time_s",
    "fval",
    "v_k",
    "v_k_over_trL",
    "sampler",
    "stepsize_mode",
    "seed",
)
TIME_COLUMNS = ("time_s",)

_DATA_KEYS = {
    "source",
    "path",
    "generator",
    "d",
    "n",
    "rank",
    "scale",
    "density",
    "noise",
    "solution_sparsity",
    "outlier_fraction",
    "outlier_size",
    "seed",
    "binarize",
    "subsample_rows",
    "subsample_cols",
    "subsample_seed",
}
_PROBLEM_KEYS = {"loss", "reg", "lambda"}
_RUN_KEYS = {
    "method",
    "sampler",
    "stepsize",
    "stepsize_value",
    "mu",
    "iterations",
    "epochs",
    "seeds",
    "metric_interval",
    "tracker",
    "refresh_interval",
}
_OUTPUT_KEYS = {"dir"}

_GENERATORS = ("regression", "classification", "ridge_benchmark", "outlier_regression")


class SpecValidationError(ValueError):
    """Invalid experiment config; ``problems`` lists every issue found."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


@dataclass
class DataSpec:
    source: str = "synthetic"
    path: str | None = None
    generator: str = "regression"
    d: int = 50
    n: int = 50
    rank: int = 20
    scale: float = 1.5
    density: float = 1.0
    noise: float = 0.1
    solution_sparsity: float = 1.0
    outlier_fraction: float = 0.1
    outlier_size: float = 8.0
    seed: int = 0
    binarize: bool = False
    subsample_rows: int | None = None
    subsample_cols: int | None = None
    subsample_seed: int = 0


@dataclass
class RunSpec:
    name: str
    config: solvers.SolverConfig
    seeds: tuple[int, ...]


@dataclass
class ExperimentSpec:
    data: DataSpec
    loss: str
    reg: str
    lam: float
    runs: list[RunSpec]
    out_dir: str = "results"


def _suggest(key: str, allowed) -> str:
    close = difflib.get_close_matches(key, sorted(allowed), n=1)
    hint = f" (did you mean {close[0]!r}?)" if close else ""
    return f"unknown key {key!r}{hint}"


def _check_keys(section, keys, allowed, problems):
    for key in keys:
        if key not in allowed:
            problems.append(f"[{section}] {_suggest(key, allowed)}")


def validate_spec(text: str) -> ExperimentSpec:
    """Parse config text into a fully resolved spec, or raise
    SpecValidationError carrying every problem found."""
    parser = configparser.ConfigParser(interpolation=None)
    problems: list[str] = []
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise SpecValidationError([f"config syntax: {exc}"]) from exc

    sections = parser.sections()
    if "problem" not in sections:
        problems.append("missing [problem] section")
    if "data" not in sections:
        problems.append("missing [data] section")

    data_spec = DataSpec()
    if "data" in sections:
        raw = dict(parser.items("data"))
        _check_keys("data", raw, _DATA_KEYS, problems)
        try:
            data_spec = _parse_data(raw, problems)
        except ValueError as exc:
            problems.append(f"[data] {exc}")

    loss, reg, lam = "square", "l2", 0.1
    if "problem" in sections:
        raw = dict(parser.items("problem"))
        _check_keys("problem", raw, _PROBLEM_KEYS, problems)
        loss = raw.get("loss", "square")
        reg = raw.get("reg", "l2")
        if loss not in glm.LOSSES:
            problems.append(f"[problem] unknown loss {loss!r}")
        if reg not in glm.REGULARIZERS:
            problems.append(f"[problem] unknown reg {reg!r}")
        try:
            lam = float(raw.get("lambda", "0.1"))
            if not 0.0 <= lam < math.inf:
                problems.append("[problem] lambda must be finite and nonnegative")
        except ValueError:
            problems.append(f"[problem] bad lambda {raw.get('lambda')!r}")

    out_dir = "results"
    if "output" in sections:
        raw = dict(parser.items("output"))
        _check_keys("output", raw, _OUTPUT_KEYS, problems)
        out_dir = raw.get("dir", out_dir)

    runs: list[RunSpec] = []
    for section in sections:
        if section in ("data", "problem", "output"):
            continue
        if not section.startswith("run"):
            problems.append(f"unexpected section [{section}]")
            continue
        name = section[3:].strip() or section
        raw = dict(parser.items(section))
        _check_keys(section, raw, _RUN_KEYS, problems)
        try:
            run = _parse_run(name, raw)
        except KeyError as exc:
            problems.append(f"[{section}] missing required key {exc}")
            continue
        except ValueError as exc:
            problems.append(f"[{section}] {exc}")
            continue
        runs.append(run)
        config = run.config
        if (
            config.method == "sgd"
            and config.stepsize_mode == "inv_mu_k"
            and not solvers.sgd_strong_convexity(config, reg, lam) > 0.0
        ):
            problems.append(
                f"[{section}] stepsize inv_mu_k needs a positive strong-convexity "
                "constant: set mu > 0, or lambda > 0 with reg = l2"
            )

    if not runs and not problems:
        problems.append("no [run ...] sections")
    if problems:
        raise SpecValidationError(problems)
    return ExperimentSpec(data=data_spec, loss=loss, reg=reg, lam=lam, runs=runs, out_dir=out_dir)


def _parse_data(raw: dict, problems: list) -> DataSpec:
    spec = DataSpec()
    spec.source = raw.get("source", "path" if "path" in raw else "synthetic")
    if spec.source not in ("synthetic", "path"):
        problems.append(f"[data] unknown source {spec.source!r}")
    spec.path = raw.get("path")
    if spec.source == "path":
        if not spec.path:
            problems.append("[data] source=path needs a path")
        elif not os.path.exists(spec.path):
            problems.append(f"[data] path {spec.path!r} does not exist")
    spec.generator = raw.get("generator", "regression")
    if spec.source == "synthetic" and spec.generator not in _GENERATORS:
        problems.append(f"[data] unknown generator {spec.generator!r}")
    for key, conv in (
        ("d", int),
        ("n", int),
        ("rank", int),
        ("seed", int),
        ("subsample_seed", int),
        ("scale", float),
        ("density", float),
        ("noise", float),
        ("solution_sparsity", float),
        ("outlier_fraction", float),
        ("outlier_size", float),
    ):
        if key in raw:
            setattr(spec, key, conv(raw[key]))
    spec.binarize = raw.get("binarize", "false").lower() in ("1", "true", "yes")
    for key in ("subsample_rows", "subsample_cols"):
        if raw.get(key):
            setattr(spec, key, int(raw[key]))
    return spec


def _parse_run(name: str, raw: dict) -> RunSpec:
    method = raw["method"]
    stepsize = raw.get("stepsize")
    stepsize_value = None
    if stepsize and ":" in stepsize:
        stepsize, value_s = stepsize.split(":", 1)
        stepsize_value = float(value_s)
    if raw.get("stepsize_value"):
        stepsize_value = float(raw["stepsize_value"])
    seeds = tuple(int(s) for s in raw.get("seeds", "0").replace(",", " ").split())
    if not seeds:
        raise ValueError("empty seeds list")
    config = solvers.SolverConfig(
        method=method,
        sampler=raw["sampler"],
        stepsize_mode=stepsize,
        stepsize_value=stepsize_value,
        mu=float(raw["mu"]) if raw.get("mu") else None,
        iterations=int(raw["iterations"]) if raw.get("iterations") else None,
        epochs=int(raw["epochs"]) if raw.get("epochs") else None,
        metric_interval=int(raw["metric_interval"]) if raw.get("metric_interval") else None,
        tracker_mode=raw.get("tracker"),
        refresh_interval=int(raw["refresh_interval"]) if raw.get("refresh_interval") else None,
    )
    return RunSpec(name=name, config=config, seeds=seeds)


def load_problem(spec: ExperimentSpec) -> glm.GlmProblem:
    d = spec.data
    if d.source == "path":
        design, labels = data_mod.parse_libsvm(d.path)
    else:
        if d.generator == "regression":
            design, labels = data_mod.synthetic_regression(
                d.d, d.n, d.seed, density=d.density,
                solution_sparsity=d.solution_sparsity, noise=d.noise,
            )
        elif d.generator == "classification":
            design, labels = data_mod.synthetic_classification(d.d, d.n, d.seed, d.density)
        elif d.generator == "ridge_benchmark":
            design, labels = data_mod.synthetic_ridge_benchmark(
                d.seed, d=d.d, n=d.n, rank=d.rank, scale=d.scale
            )
        else:
            design, labels = data_mod.synthetic_outlier_regression(
                d.seed, d=d.d, n=d.n,
                outlier_fraction=d.outlier_fraction, outlier_size=d.outlier_size,
            )
    if d.binarize:
        design = data_mod.binarize(design)
    if d.subsample_rows or d.subsample_cols:
        rows = d.subsample_rows or design.n_rows
        cols = d.subsample_cols or design.n_cols
        design, labels = data_mod.subsample(design, labels, rows, cols, d.subsample_seed)
    return glm.GlmProblem(design, labels, spec.loss, spec.reg, spec.lam)


def _format(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _atomic_write_csv(path: str, header, rows) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(rows)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_trace_csv(path: str, trace: solvers.MetricsTrace) -> None:
    rows = [
        (
            r.iteration,
            _format(r.epoch),
            _format(r.time_s),
            _format(r.fval),
            _format(r.v),
            _format(r.v_over_trace),
            trace.sampler,
            trace.stepsize_mode,
            trace.seed,
        )
        for r in trace.rows
    ]
    _atomic_write_csv(path, TRACE_COLUMNS, rows)


def _execute(problem, name, config):
    trace = solvers.run(problem, config)
    return name, config, trace


def run_experiment(
    spec: ExperimentSpec,
    out_dir: str | None = None,
    jobs: int = 1,
    base_seed: int = 0,
) -> list[str]:
    """Run every (config, seed) pair and write trace plus summary CSVs.

    Returns the list of written file paths; raises RuntimeError if any
    run diverged or produced a non-finite objective.
    """
    out_dir = out_dir or spec.out_dir
    os.makedirs(out_dir, exist_ok=True)
    problem = load_problem(spec)

    tasks = []
    for run in spec.runs:
        for offset in run.seeds:
            config = replace(run.config, seed=base_seed + offset)
            tasks.append((f"{run.name}_seed{base_seed + offset}", config))

    results = []
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_execute, problem, name, cfg) for name, cfg in tasks]
            results = [f.result() for f in futures]
    else:
        results = [_execute(problem, name, cfg) for name, cfg in tasks]

    paths = []
    summary_rows = []
    failed = []
    for name, config, trace in results:
        path = os.path.join(out_dir, f"{name}.csv")
        write_trace_csv(path, trace)
        paths.append(path)
        status = "ok"
        if trace.diverged or not all(np.isfinite(r.fval) for r in trace.rows):
            status = "failed"
            failed.append(name)
        grad_t = trace.gradient_time_s
        ratio = trace.sampling_time_s / grad_t if grad_t > 0 else float("inf")
        summary_rows.append(
            (
                name,
                trace.sampler,
                trace.stepsize_mode,
                trace.seed,
                trace.rows[-1].iteration,
                _format(trace.final_fval),
                "converged" if trace.converged else status,
                _format(trace.rows[-1].time_s),
                _format(trace.sampling_time_s),
                _format(trace.gradient_time_s),
                _format(ratio),
            )
        )
        logger.info("run %s: final objective %s", name, trace.final_fval)

    summary_path = os.path.join(out_dir, "summary.csv")
    _atomic_write_csv(
        summary_path,
        (
            "run",
            "sampler",
            "stepsize_mode",
            "seed",
            "iterations",
            "final_fval",
            "status",
            "total_time_s",
            "sampling_time_s",
            "gradient_time_s",
            "sampling_over_gradient",
        ),
        summary_rows,
    )
    paths.append(summary_path)
    if failed:
        raise RuntimeError(f"diverged or non-finite objective in runs: {', '.join(failed)}")
    return paths


def bench_sampler(n: int, reps: int, seed: int = 0) -> float:
    """Best-of-reps wall time of one safe-sampling solve at dimension n."""
    import time as _time

    from .sampling import GradientBox, LipschitzProfile, compute_safe_sampling

    rng = np.random.default_rng(seed)
    values = rng.uniform(0.5, 2.0, n)
    lower = np.abs(rng.standard_normal(n))
    upper = lower + np.abs(rng.standard_normal(n))
    profile = LipschitzProfile(values)
    box = GradientBox(lower, upper)
    best = float("inf")
    for _ in range(reps):
        t0 = _time.perf_counter()
        compute_safe_sampling(box, profile)
        best = min(best, _time.perf_counter() - t0)
    return best
