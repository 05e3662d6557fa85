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
from dataclasses import dataclass, fields, replace

import numpy as np

from . import data as data_mod
from . import glm, solvers, tracker

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

_PROBLEM_KEYS = {"loss", "reg", "lambda"}
# The numeric [run] keys with their types; each names a SolverConfig field.
_RUN_NUMBERS = {
    "mu": float,
    "iterations": int,
    "epochs": int,
    "metric_interval": int,
    "refresh_interval": int,
}
_RUN_KEYS = {*_RUN_NUMBERS, "method", "sampler", "stepsize", "seeds", "tracker"}
_OUTPUT_KEYS = {"dir"}

# Each synthetic generator, data.synthetic_NAME, with the [data] keys it
# reads besides d, n and seed.
_GENERATORS = {
    "regression": ("density", "solution_sparsity", "noise"),
    "classification": ("density",),
    "ridge_benchmark": ("rank", "scale"),
    "outlier_regression": ("outlier_fraction", "outlier_size"),
}
# [data] keys every source reads.
_SOURCE_KEYS = {"source", "binarize", "subsample_rows", "subsample_cols", "subsample_seed"}
_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


class SpecValidationError(ValueError):
    """Invalid experiment config; ``problems`` lists every issue found."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


@dataclass
class DataSpec:
    """The [data] section.  Its fields are the section's keys, and a key's
    type is the type of its default.

    ``source = path`` reads the libsvm file at ``path``.  ``source =
    synthetic`` calls ``data.synthetic_<generator>`` with d, n, seed and the
    keys that generator reads (``_GENERATORS``).  Either source then applies
    ``binarize`` and the ``subsample_*`` keys; 0 rows or columns keeps all.
    """

    source: str = "synthetic"
    path: str = ""
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
    subsample_rows: int = 0
    subsample_cols: int = 0
    subsample_seed: int = 0


_DATA_FIELDS = {f.name for f in fields(DataSpec)}


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
        _check_keys("data", raw, _DATA_FIELDS, problems)
        data_spec = _parse_data(raw, problems)

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
        if config.tracker_mode == tracker.CD_EXACT_GRAM and loss != "square":
            problems.append(
                f"[{section}] exact-gram tracking needs constant curvature (square loss)"
            )

    if not runs and not problems:
        problems.append("no [run ...] sections")
    if problems:
        raise SpecValidationError(problems)
    return ExperimentSpec(data=data_spec, loss=loss, reg=reg, lam=lam, runs=runs, out_dir=out_dir)


def _parse_data(raw: dict, problems: list) -> DataSpec:
    """The DataSpec of a [data] section, appending one problem per bad key.

    Each key is converted by the type of its DataSpec default: a float must
    be finite, an int nonnegative (d, n and rank at least 1), a bool one of
    true/false/yes/no/1/0; ``density`` must lie in (0, 1] and
    ``outlier_fraction`` in [0, 1].  A key the chosen source or generator
    does not read is a problem too.
    """
    values = {"source": "path" if "path" in raw else "synthetic"}
    for f in fields(DataSpec):
        if f.name not in raw:
            continue
        text, kind = raw[f.name], type(f.default)
        try:
            value = _BOOLEANS[text.lower()] if kind is bool else kind(text)
        except (KeyError, ValueError):
            problems.append(f"[data] bad {f.name} {text!r}")
            continue
        if kind is float and not math.isfinite(value):
            problems.append(f"[data] {f.name} must be finite")
        elif kind is int and f.name in ("d", "n", "rank") and value < 1:
            problems.append(f"[data] {f.name} must be at least 1")
        elif kind is int and value < 0:
            problems.append(f"[data] {f.name} must be nonnegative")
        elif f.name == "density" and not 0.0 < value <= 1.0:
            problems.append("[data] density must be in (0, 1]")
        elif f.name == "outlier_fraction" and not 0.0 <= value <= 1.0:
            problems.append("[data] outlier_fraction must be in [0, 1]")
        values[f.name] = value
    spec = DataSpec(**values)

    if spec.source == "path":
        where, read = "source = path", {"path"}
        if not spec.path:
            problems.append("[data] source=path needs a path")
        elif not os.path.exists(spec.path):
            problems.append(f"[data] path {spec.path!r} does not exist")
    elif spec.source == "synthetic" and spec.generator in _GENERATORS:
        where = f"source = synthetic, generator = {spec.generator}"
        read = {"generator", "d", "n", "seed", *_GENERATORS[spec.generator]}
        # The generators make d x n designs; 0 keeps every row or column.
        for key, generated in (("subsample_rows", spec.d), ("subsample_cols", spec.n)):
            size = getattr(spec, key)
            if size and size > generated:
                problems.append(f"[data] {key} = {size} exceeds the generated {generated}")
    else:
        key = "source" if spec.source != "synthetic" else "generator"
        problems.append(f"[data] unknown {key} {getattr(spec, key)!r}")
        return spec
    for key in raw:
        if key in _DATA_FIELDS and key not in read | _SOURCE_KEYS:
            problems.append(f"[data] {key} is not read by {where}")
    return spec


def _parse_run(name: str, raw: dict) -> RunSpec:
    stepsize = raw.get("stepsize")
    stepsize_value = None
    if stepsize and ":" in stepsize:
        stepsize, value_s = stepsize.split(":", 1)
        stepsize_value = float(value_s)
    seeds = tuple(int(s) for s in raw.get("seeds", "0").replace(",", " ").split())
    if not seeds:
        raise ValueError("empty seeds list")
    if min(seeds) < 0:
        raise ValueError("seeds must be nonnegative")
    config = solvers.SolverConfig(
        method=raw["method"],
        sampler=raw["sampler"],
        stepsize_mode=stepsize,
        stepsize_value=stepsize_value,
        tracker_mode=raw.get("tracker"),
        **{key: kind(raw[key]) for key, kind in _RUN_NUMBERS.items() if raw.get(key)},
    )
    return RunSpec(name=name, config=config, seeds=seeds)


def load_problem(spec: ExperimentSpec) -> glm.GlmProblem:
    """The problem a validated spec describes.

    A synthetic design comes from ``data.synthetic_<generator>``, called
    with d, n, seed and the keys in ``_GENERATORS``.  validate_spec cannot
    see a libsvm file's size, so a subsample larger than the file raises
    SpecValidationError here.
    """
    d = spec.data
    if d.source == "path":
        design, labels = data_mod.parse_libsvm(d.path)
    else:
        # Looked up at call time, so that a wrapper set on the module sees it.
        make = getattr(data_mod, f"synthetic_{d.generator}")
        extras = {key: getattr(d, key) for key in _GENERATORS[d.generator]}
        design, labels = make(d=d.d, n=d.n, seed=d.seed, **extras)
    if d.binarize:
        design = data_mod.binarize(design)
    if d.subsample_rows or d.subsample_cols:
        too_big = [
            f"[data] {key} = {size} exceeds the file's {have}"
            for key, size, have in (
                ("subsample_rows", d.subsample_rows, design.n_rows),
                ("subsample_cols", d.subsample_cols, design.n_cols),
            )
            if size > have
        ]
        if too_big:
            raise SpecValidationError(too_big)
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
