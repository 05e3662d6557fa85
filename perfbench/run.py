"""adasamp benchmark: one workload, one seed, one measurement.

    python3 perfbench/run.py --workload cd-sparse-wide --seed 1 --seconds 20 --trace 0

Run from the repository root.  The script writes the workload's inputs
under ``.bench_work/``, computes the reference optimum f* with its own
solver, then starts ``worker.py`` in a fresh interpreter that drives
``adasamp run`` for about ``--seconds`` seconds.  Afterwards it verifies
every trace CSV the program wrote and prints one line per metric followed
by a JSON object on the last line.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a traced run.  See
``perfbench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
import scipy.sparse as sp  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = ".bench_work"
SRC = "src"
# The whole script must finish within 180 s; the worker gets what is left.
DEADLINE_S = 170.0
# Tolerance of the check f >= f* - tol, relative to |f*|.
FSTAR_RTOL = 1e-5
# BLAS threads of the measured process.  One: a second thread only wakes
# for the O(d) vector reductions of an SGD step, and the hand-off made
# sgd-text slower and far noisier on a shared two-core host.
BLAS_THREADS = "1"
# v_k / trace(L) may exceed 1 by rounding only.
V_RATIO_SLACK = 1e-12


class BenchError(RuntimeError):
    """The benchmark cannot produce a trustworthy measurement."""


# -- inputs and reference ---------------------------------------------------
def _problem_key(workload, design, labels) -> str:
    """Hash of everything f* depends on: loss, penalty, design and labels."""
    digest = hashlib.sha256(
        f"{workload.loss} {workload.reg} {workload.lam!r} {design.shape}".encode())
    if sp.issparse(design):
        csr = sp.csr_matrix(design, copy=True)
        csr.sum_duplicates()
        csr.sort_indices()
        for part in (csr.indptr, csr.indices, csr.data):
            digest.update(np.ascontiguousarray(part, dtype=np.float64).tobytes())
    else:
        digest.update(np.ascontiguousarray(design, dtype=np.float64).tobytes())
    digest.update(np.ascontiguousarray(labels, dtype=np.float64).tobytes())
    return digest.hexdigest()


def _reference(workload, inputs, cache_path) -> float:
    """f* for these inputs, cached by a hash of the problem instance."""
    if workload.name == "desk-ridge":
        # The program generates this instance itself; solve the one it makes.
        from adasamp.data import synthetic_ridge_benchmark

        generated, labels = synthetic_ridge_benchmark(workload.instance)
        design = generated.toarray()
    else:
        design, labels = inputs["design"], inputs["labels"]
    key = _problem_key(workload, design, labels)
    cache = {}
    if os.path.exists(cache_path):
        with open(cache_path, "r", encoding="utf-8") as handle:
            cache = json.load(handle)
    if key in cache:
        return cache[key]
    if workload.loss == "square":
        fstar = reference.ridge_optimum(design, labels, workload.lam)
    else:
        fstar = reference.logistic_l1_optimum(design, labels, workload.lam)
    cache[key] = fstar
    with open(cache_path, "w", encoding="utf-8") as handle:
        json.dump(cache, handle)
    return fstar


def _run_worker(args, ini, out_dir, base, result_path, started) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--ini", ini,
           "--out", out_dir, "--base-seed", str(base), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--result", result_path]
    remaining = DEADLINE_S - (time.monotonic() - started)
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(remaining, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within {remaining:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    with open(result_path, "r", encoding="utf-8") as handle:
        return json.load(handle)


# -- output verification ----------------------------------------------------
def _read_trace(path: str):
    with open(path, "r", encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], rows[1:]
    time_col = header.index("time_s")
    stripped = [row[:time_col] + row[time_col + 1:] for row in body]
    return header, body, stripped


def _check_run(header, body, fstar) -> str | None:
    """Reason the trace fails verification, or None."""
    if not body:
        return "empty trace"
    col = {name: header.index(name) for name in ("iteration", "fval", "v_k_over_trL")}
    iters = [int(row[col["iteration"]]) for row in body]
    fvals = [float(row[col["fval"]]) for row in body]
    if any(b <= a for a, b in zip(iters, iters[1:])):
        return "checkpoint iterations not strictly increasing"
    if not all(math.isfinite(f) for f in fvals):
        return "non-finite objective"
    floor = fstar - FSTAR_RTOL * abs(fstar)
    if min(fvals) < floor:
        return f"objective {min(fvals)!r} below f* {fstar!r}"
    for row in body:
        text = row[col["v_k_over_trL"]]
        if text and not 0.0 < float(text) <= 1.0 + V_RATIO_SLACK:
            return f"v_k_over_trL {text} outside (0, 1]"
    return None


def _verify_calls(calls, workload, base, fstar, reference_rows):
    """Check every run of every call; return (run records, failures).

    ``reference_rows`` maps a CSV name to its rows without ``time_s`` from
    the first successful call; later calls must match it byte for byte.
    A record holds one run's timings from every call that verified it.
    """
    expected = workload.expected_runs(base)
    records, failures = {}, []
    for call in calls:
        if call["rc"] != 0:
            reason = call["error"] or f"adasamp run exited {call['rc']}"
            failures += [(name, reason) for name, _, _ in expected]
            continue
        if len(call["runs"]) != len(expected):
            raise BenchError(
                f"{len(call['runs'])} solvers.run calls seen, {len(expected)} expected; "
                "the program no longer calls adasamp.solvers.run once per run")
        for (name, sampler, seed), probe in zip(expected, call["runs"]):
            if (probe["sampler"], probe["seed"]) != (sampler, seed):
                raise BenchError(f"run order changed: {name} ran as {probe}")
            path = os.path.join(call["out_dir"], name)
            if not os.path.exists(path):
                failures.append((name, "trace CSV missing"))
                continue
            header, body, stripped = _read_trace(path)
            reason = _check_run(header, body, fstar)
            if reason is None:
                first = reference_rows.setdefault(name, stripped)
                if first != stripped:
                    reason = "trace differs from the first repeat (time_s aside)"
            if reason is not None:
                failures.append((name, reason))
                continue
            fvals = [float(row[header.index("fval")]) for row in body]
            if [f for _, f in probe["checkpoints"]] != fvals:
                raise BenchError(
                    f"{name}: checkpoint objectives seen at adasamp.glm.objective do "
                    "not match the trace CSV")
            if name not in records:
                iters = [int(row[header.index("iteration")]) for row in body]
                subopt = [(f - fstar) / abs(fstar) for f in fvals]
                hit = next(
                    (k for k, s in enumerate(subopt) if s <= workload.target), None)
                records[name] = {
                    "sampler": sampler, "iterations": probe["iterations"], "hit": hit,
                    "iters_to_target": math.inf if hit is None else iters[hit],
                    "subopt": subopt[-1], "segments": [],
                }
            # Durations of the checkpoint segments, then of the tail after
            # the last checkpoint.
            times = [0.0] + [t for t, _ in probe["checkpoints"]] + [probe["wall"]]
            records[name]["segments"].append(np.diff(times))
    return [_best_of_repeats(r) for r in records.values()], failures


def _best_of_repeats(record) -> dict:
    """Time a run as its fastest repeat of each checkpoint segment.

    The repeats compute the same iterates, so they differ only in how fast
    the host ran them.  A shared host's cores change speed by up to 2x for
    seconds at a time; the per-segment minimum keeps that out of the figure
    as long as one repeat ran each segment at full speed.
    """
    elapsed = np.cumsum(np.min(np.vstack(record.pop("segments")), axis=0))
    hit = record.pop("hit")
    record["iter_us"] = 1e6 * elapsed[-1] / record["iterations"]
    record["tta_s"] = math.inf if hit is None else float(elapsed[hit])
    return record


# -- aggregation --------------------------------------------------------------
def _median_of(records, sampler, key, what):
    values = [r[key] for r in records if r["sampler"] == sampler]
    if not values:
        raise BenchError(f"no verified {sampler} run to measure {what}")
    value = statistics.median(values)
    if not math.isfinite(value):
        raise BenchError(
            f"{what}: the median {sampler} run never reached the target suboptimality")
    return value


def _run_seconds(calls):
    """One call's wall time less its set-up, from the fastest repeats.

    Each solver run counts at its fastest repeat, and the rest of the call
    (harness work and CSV output between runs) at its fastest call, for the
    reason given in _best_of_repeats.  ``_verify_calls`` has checked that
    every successful call made the same runs.
    """
    ok = [c for c in calls if c["rc"] == 0]
    if not ok:
        raise BenchError("no successful adasamp run call")
    runs = zip(*[[r["wall"] for r in c["runs"]] for c in ok])
    rest = [c["wall"] - c["validate"] - c["load"] - sum(r["wall"] for r in c["runs"])
            for c in ok]
    return sum(min(walls) for walls in runs) + min(rest)


def _end_to_end(result, records, attempted, failed) -> dict:
    return {
        "setup_s": statistics.median(result["setup_samples"]),
        "run_s": _run_seconds(result["untraced"]),
        "safe_iter_us": _median_of(records, "safe_adaptive", "iter_us", "safe_iter_us"),
        "static_iter_us": _median_of(records, "fixed_li", "iter_us", "static_iter_us"),
        "safe_tta_s": _median_of(records, "safe_adaptive", "tta_s", "safe_tta_s"),
        "static_tta_s": _median_of(records, "fixed_li", "tta_s", "static_tta_s"),
        "safe_subopt": _median_of(records, "safe_adaptive", "subopt", "safe_subopt"),
        "static_subopt": _median_of(records, "fixed_li", "subopt", "static_subopt"),
        "peak_rss_mb": result["peak_rss_kib"] / 1024.0,
        "ok_frac": (attempted - failed) / attempted,
    }


def _per_layer(result, records, untraced_run_s, data_mb) -> dict:
    """Per-layer metrics from the traced calls (see README for each)."""
    spans = result["spans"]
    health = result["health"]
    traced = [c for c in result["traced"] if c["rc"] == 0]
    if not traced:
        raise BenchError("no successful traced adasamp run call")
    n_calls = len(result["traced"])

    def per_call(name, scale):
        s = spans[name]
        return scale * s["total"] / s["calls"] if s["calls"] else 0.0

    def per_call_self(name, scale):
        return scale * spans[name]["self"] / n_calls

    iterations = sum(r["iterations"] for c in traced for r in c["runs"])
    run_span = spans["solvers.run"]
    solve = spans["sampling.solve"]
    parse_s = per_call("data.parse", 1.0)
    solves = health["solves"]
    return {
        "sampling.solve_us": 1e6 * solve.get("median", 0.0),
        "sampling.solve_us_p99": 1e6 * solve.get("p99", 0.0),
        "sampling.solve_calls": solve["calls"] / n_calls,
        "sampling.draw_us": per_call("sampling.draw", 1e6),
        "sampling.full_info_us": per_call("sampling.full_info", 1e6),
        "sampling.pinned_frac": health["pinned_frac"],
        "sampling.v_over_trace_mean": health["v_over_trace_mean"],
        "sampling.informative_frac": health["informative"] / solves if solves else 0.0,
        "sampling.stationary_stops": sum(
            spans[name]["errors"].get("StationaryPointError", 0)
            for name in ("sampling.solve", "sampling.full_info")),
        "tracker.update_us": per_call("tracker.update", 1e6),
        "tracker.box_us": per_call("tracker.box", 1e6),
        "tracker.init_ms": per_call("tracker.init", 1e3),
        "tracker.finite_frac": health["finite_frac"],
        "tracker.exact_frac": health["exact_frac"],
        "tracker.bound_violations": health["bound_violations"],
        "tracker.audited_coords": health["audited_coords"],
        "glm.coord_grad_us": per_call("glm.coord_grad", 1e6),
        "glm.apply_step_us": per_call("glm.apply_step", 1e6),
        "glm.component_us": per_call("glm.component", 1e6),
        "glm.prox_us": per_call("glm.prox", 1e6),
        "glm.objective_ms": per_call("glm.objective", 1e3),
        "glm.full_grad_us": per_call("glm.full_grad", 1e6),
        "glm.lipschitz_ms": per_call("glm.lipschitz", 1e3),
        "solvers.self_us": 1e6 * run_span["self"] / iterations,
        "solvers.iterations": iterations / n_calls,
        "solvers.safe_iters_to_target": _median_of(
            records, "safe_adaptive", "iters_to_target", "safe iterations to target"),
        "solvers.static_iters_to_target": _median_of(
            records, "fixed_li", "iters_to_target", "static iterations to target"),
        "solvers.wall_s": run_span["total"] / n_calls,
        "data.parse_s": parse_s,
        "data.parse_mb_s": data_mb / parse_s if parse_s else 0.0,
        "data.design_ms": per_call("data.design", 1e3),
        "data.generate_ms": per_call("data.generate", 1e3),
        "harness.validate_ms": per_call("harness.validate", 1e3),
        "harness.load_problem_s": per_call("harness.load_problem", 1.0),
        "harness.write_csv_ms": per_call("harness.write_csv", 1e3),
        "harness.self_ms": per_call_self("harness.run_experiment", 1e3),
        "cli.self_ms": per_call_self("cli.main", 1e3),
        "bench.trace_overhead_frac": _run_seconds(result["traced"]) / untraced_run_s - 1.0,
    }


def _units(metrics: dict, trace: int) -> dict:
    """Units from BENCHMARK.json; the metric set must match it exactly."""
    with open("BENCHMARK.json", "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    declared = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise BenchError(f"metrics {sorted(set(units) ^ set(metrics))} disagree with "
                         "BENCHMARK.json")
    return units


def measure(args) -> dict:
    started = time.monotonic()
    if not os.path.isfile(os.path.join(SRC, "adasamp", "__init__.py")):
        raise BenchError("run from the repository root: src/adasamp not found")
    sys.path.insert(0, os.path.abspath(SRC))
    workload = workloads.WORKLOADS[args.workload]
    work = os.path.join(WORK_ROOT, workload.name, f"seed{args.seed}")
    out_dir = os.path.join(work, "out")
    shutil.rmtree(out_dir, ignore_errors=True)
    inputs = workloads.write_inputs(workload, work)
    fstar = _reference(workload, inputs,
                       os.path.join(WORK_ROOT, workload.name, "fstar.json"))
    base = workloads.base_seed(args.seed)
    result = _run_worker(args, inputs["ini"], out_dir, base,
                         os.path.join(work, "result.json"), started)

    if result["missing"]:
        raise BenchError(f"{workload.name}: no calls seen at required site(s) "
                         + ", ".join(result["missing"]))
    if result.get("nested"):
        # solvers.self_us and the child spans would no longer add up to the
        # solver's wall time; see Tracer.nested.
        raise BenchError("solver call sites entered inside another wrapped call: "
                         + ", ".join(f"{k} x{v}" for k, v in result["nested"].items()))
    # Traced calls must reproduce the untraced traces too.
    reference_rows = {}
    records, failures = _verify_calls(
        result["untraced"], workload, base, fstar, reference_rows)
    traced_records, traced_failures = _verify_calls(
        result.get("traced", []), workload, base, fstar, reference_rows)
    failures += traced_failures
    calls = len(result["untraced"]) + len(result.get("traced", []))
    attempted = calls * len(workload.expected_runs(base))
    for name, reason in failures:
        print(f"FAILED {name}: {reason}")
    if args.trace == 0:
        metrics = _end_to_end(result, records, attempted, len(failures))
        correct = not failures
    else:
        data_mb = (os.path.getsize(inputs["data_path"]) / 1e6
                   if inputs["data_path"] else 0.0)
        metrics = _per_layer(
            result, traced_records, _run_seconds(result["untraced"]), data_mb)
        correct = not failures and metrics["tracker.bound_violations"] == 0
    print(f"fail_frac {len(failures)}/{attempted} solver runs "
          f"({len(failures) / attempted:.4g})")
    if correct:
        # Inputs and traces are kept only when something needs a look.
        shutil.rmtree(work)
    return {"correct": correct, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        outcome = measure(args)
        units = _units(outcome["metrics"], args.trace)
    except (BenchError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for name, value in outcome["metrics"].items():
        print(f"{args.workload:>15} {name:<34} {value:>16.6g} {units[name]}")
    outcome["metrics"] = {
        name: {"value": value, "unit": units[name]}
        for name, value in outcome["metrics"].items()
    }
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
