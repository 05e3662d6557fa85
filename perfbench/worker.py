"""Measured process: drives ``adasamp run`` and writes raw timings as JSON.

Run by ``run.py`` in a fresh interpreter so that its peak resident memory
covers the workload alone.  It does no verification and no aggregation
beyond what needs the live tracer; ``run.py`` reads the result file and the
trace CSVs the program wrote.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

from adasamp import cli, harness

import tracing
import workloads

# Standalone set-up samples taken after each untraced call, next to the
# one inside the call: at least SETUP_MIN_PER_GAP, and cheap set-ups are
# repeated until SETUP_GAP_S seconds or SETUP_MAX_PER_GAP samples.  Spread
# over the run, their median follows the host's usual speed during the
# run rather than its speed at one moment.
SETUP_MIN_PER_GAP = 2
SETUP_GAP_S = 0.25
SETUP_MAX_PER_GAP = 50
# Repetitions of the whole ``adasamp run`` call that every measurement has.
MIN_UNTRACED = 2
MIN_TRACED = 1


def _cli_call(tracer: tracing.Tracer, ini: str, out_dir: str, base_seed: int) -> dict:
    """One ``adasamp run`` call with its wall time and set-up share."""
    before = tracer.snapshot()
    runs_before = len(tracer.runs)
    argv = ["run", ini, "--jobs", "1", "--out-dir", out_dir, "--seed", str(base_seed)]
    error = None
    sink = io.StringIO()
    t0 = tracer.clock()
    try:
        with contextlib.redirect_stdout(sink):
            rc = cli.main(argv)
    except Exception:  # a failed call is recorded and counted, not fatal
        rc, error = None, traceback.format_exc()
    wall = tracer.clock() - t0
    after = tracer.snapshot()
    return {
        "rc": rc,
        "error": error,
        "out_dir": out_dir,
        "wall": wall,
        "validate": after["harness.validate"] - before["harness.validate"],
        "load": after["harness.load_problem"] - before["harness.load_problem"],
        "runs": [
            {"sampler": r.sampler, "seed": r.seed, "wall": r.wall,
             "iterations": r.iterations, "checkpoints": r.checkpoints}
            for r in tracer.runs[runs_before:]
        ],
    }


def _repeat(tracer, args, label, minimum, deadline, after_call=None) -> list[dict]:
    """Repeat the call until the next one would pass ``deadline``."""
    calls = []
    while True:
        out_dir = os.path.join(args.out, f"{label}{len(calls)}")
        start = time.perf_counter()
        calls.append(_cli_call(tracer, args.ini, out_dir, args.base_seed))
        if after_call is not None:
            after_call()
        took = time.perf_counter() - start
        if len(calls) >= minimum and time.perf_counter() + took > deadline:
            return calls


def _setup_samples(ini: str, out: list) -> None:
    """Append standalone set-up samples for one gap between calls."""
    with open(ini, "r", encoding="utf-8") as handle:
        text = handle.read()
    spent, taken = 0.0, 0
    while taken < SETUP_MIN_PER_GAP or (
            spent < SETUP_GAP_S and taken < SETUP_MAX_PER_GAP):
        t0 = time.perf_counter()
        harness.load_problem(harness.validate_spec(text))
        out.append(time.perf_counter() - t0)
        spent += out[-1]
        taken += 1


def _mean(values) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def _span_summary(tracer: tracing.Tracer) -> dict:
    out = {}
    for name, stat in tracer.stats.items():
        entry = {"calls": stat.calls, "total": stat.total, "self": stat.self_total,
                 "errors": dict(stat.errors)}
        if stat.durations:
            durations = sorted(stat.durations)
            entry["median"] = statistics.median(durations)
            entry["p99"] = durations[min(len(durations) - 1, int(0.99 * len(durations)))]
        out[name] = entry
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--ini", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--base-seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    start = time.perf_counter()
    result = {}
    standalone = []
    untraced = tracing.Tracer(tracing.BOUNDARY_SITES)
    untraced.install()
    try:
        if args.trace == 0:
            share = args.seconds
            # The boundary probes add microseconds to a sample; the
            # snapshots around each call leave these samples out of it.
            after_call = functools.partial(_setup_samples, args.ini, standalone)
        else:
            share, after_call = args.seconds / 2, None
        calls = _repeat(untraced, args, "untraced", MIN_UNTRACED, start + share,
                        after_call)
        result["untraced"] = calls
        # Call sites that saw no call; run.py refuses to report if any.
        result["missing"] = untraced.missing(
            [name for name, _, _ in tracing.BOUNDARY_SITES])
    finally:
        untraced.uninstall()

    if args.trace == 0:
        result["setup_samples"] = standalone + [
            c["validate"] + c["load"] for c in calls if c["rc"] == 0]
        result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        traced = tracing.Tracer(tracing.TRACED_SITES)
        traced.install()
        try:
            result["traced"] = _repeat(
                traced, args, "traced", MIN_TRACED, start + args.seconds)
        finally:
            traced.uninstall()
        result["missing"] += traced.missing(workloads.WORKLOADS[args.workload].required)
        result["nested"] = dict(traced.nested)
        result["spans"] = _span_summary(traced)
        result["health"] = {
            "solves": len(traced.v_over_trace),
            "v_over_trace_mean": _mean(traced.v_over_trace),
            "informative": sum(v < tracing.INFORMATIVE_BELOW for v in traced.v_over_trace),
            "pinned_frac": _mean(traced.pinned),
            "finite_frac": _mean(traced.finite_frac),
            "exact_frac": _mean(traced.exact_frac),
            "bound_violations": traced.bound_violations,
            "audited_coords": traced.audited_coords,
        }

    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
