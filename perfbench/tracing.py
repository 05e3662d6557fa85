"""Spans around adasamp's public call sites, installed from outside.

A ``Tracer`` replaces each listed function with a wrapper at the attribute
its caller looks up (``adasamp.solvers.compute_safe_sampling`` is what the
solver loop calls, ``adasamp.glm.objective`` what it evaluates at each
checkpoint), so the package itself is unchanged.  Every wrapper records a
span: its duration and the part of it covered by wrapped calls made inside
it.  A span's self time is its duration minus that covered part.

Work the benchmark does for itself inside a wrapper (the bound-safety audit
at checkpoints, reading the sampler's solution) runs in hooks after the
wrapped call returns.  Hook time is added to ``excluded`` and subtracted
from the tracer's clock, so no span, including the enclosing ones, counts
it.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from adasamp import cli, data, glm, harness, solvers, tracker

# (span name, owner, attribute).  Several attributes may share a span name.
BOUNDARY_SITES = (
    ("harness.validate", harness, "validate_spec"),
    ("harness.load_problem", harness, "load_problem"),
    ("solvers.run", solvers, "run"),
    ("glm.objective", glm, "objective"),
)

TRACED_SITES = BOUNDARY_SITES + (
    ("cli.main", cli, "main"),
    ("harness.run_experiment", harness, "run_experiment"),
    ("harness.write_csv", harness, "write_trace_csv"),
    ("data.parse", data, "parse_libsvm"),
    ("data.generate", data, "synthetic_ridge_benchmark"),
    ("data.design", data.SparseDesign, "from_matrix"),
    ("sampling.solve", solvers, "compute_safe_sampling"),
    ("sampling.draw", solvers, "draw_index"),
    ("sampling.full_info", solvers, "optimal_sampling"),
    ("tracker.init", tracker, "init_tracker"),
    ("tracker.box", tracker, "sampling_box"),
    ("tracker.update", tracker, "cd_update"),
    ("tracker.update", tracker, "sgd_update"),
    ("glm.lipschitz", glm, "coordinate_lipschitz"),
    ("glm.lipschitz", glm, "component_lipschitz"),
    ("glm.coord_grad", glm, "smooth_coordinate_gradient"),
    ("glm.apply_step", glm.CdState, "apply_step"),
    ("glm.component", glm, "component_derivative"),
    ("glm.prox", glm, "prox_step"),
    ("glm.full_grad", glm, "full_gradient"),
    ("glm.full_grad", glm, "all_component_derivatives"),
)

# Spans that solvers.run opens directly.  Their totals plus the solver's own
# self time add up to its wall time only while none of them is entered with
# another wrapped span open inside the solver; such entries are counted in
# ``Tracer.nested``.
SOLVER_CHILDREN = (
    "glm.objective", "sampling.solve", "sampling.draw", "sampling.full_info",
    "tracker.init", "tracker.box", "tracker.update", "glm.lipschitz",
    "glm.coord_grad", "glm.apply_step", "glm.component", "glm.prox",
    "glm.full_grad",
)

# Spans whose per-call durations are kept for percentiles.
KEEP_DURATIONS = ("sampling.solve",)

# A solve whose v/trace falls below this carried usable bound information.
INFORMATIVE_BELOW = 0.99

# Relative slack allowed when checking that a true gradient lies in its box.
AUDIT_RTOL = 1e-8


@dataclass
class SpanStat:
    calls: int = 0
    total: float = 0.0
    self_total: float = 0.0
    errors: Counter = field(default_factory=Counter)
    durations: list = field(default_factory=list)


@dataclass
class RunRecord:
    """One solvers.run call: its wall time and checkpoint (time, f) pairs."""

    sampler: str
    seed: int
    wall: float = 0.0
    iterations: int = 0
    checkpoints: list = field(default_factory=list)


class Tracer:
    def __init__(self, sites):
        self.sites = sites
        self.stats: dict[str, SpanStat] = {name: SpanStat() for name, _, _ in sites}
        self.runs: list[RunRecord] = []
        self.excluded = 0.0
        self._stack: list[float] = []
        self._saved: list = []
        self._run: RunRecord | None = None
        self._run_depth = 0
        self._tracker_state = None
        self.nested: Counter = Counter()
        self._originals = {}
        # Sampler and tracker health, gathered in hooks.
        self.v_over_trace: list[float] = []
        self.pinned: list[float] = []
        self.finite_frac: list[float] = []
        self.exact_frac: list[float] = []
        self.bound_violations = 0
        self.audited_coords = 0

    def clock(self) -> float:
        return time.perf_counter() - self.excluded

    # -- installation -------------------------------------------------
    def install(self) -> None:
        hooks = {
            "solvers.run": self._after_run,
            "glm.objective": self._after_objective,
            "sampling.solve": self._after_solve,
            "tracker.init": self._after_tracker_init,
        }
        for name, owner, attr in self.sites:
            raw = owner.__dict__[attr]
            fn = getattr(owner, attr)
            self._originals[(owner, attr)] = fn
            wrapper = self._wrap(name, fn, hooks.get(name))
            if isinstance(raw, classmethod):
                wrapper = staticmethod(wrapper)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def _wrap(self, name, fn, hook):
        stat = self.stats[name]
        stack = self._stack
        keep = name in KEEP_DURATIONS
        is_run = name == "solvers.run"
        is_child = name in SOLVER_CHILDREN

        def wrapper(*args, **kwargs):
            if is_run:
                config = args[1] if len(args) > 1 else kwargs["config"]
                self._run = RunRecord(sampler=config.sampler, seed=config.seed)
                self._run_depth = len(stack) + 1
            elif is_child and self._run is not None and len(stack) != self._run_depth:
                self.nested[name] += 1
            t0 = self.clock()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                stat.errors[type(exc).__name__] += 1
                raise
            finally:
                duration = self.clock() - t0
                covered = stack.pop()
                if stack:
                    stack[-1] += duration
                stat.calls += 1
                stat.total += duration
                stat.self_total += duration - covered
                if keep:
                    stat.durations.append(duration)
            if hook is not None:
                h0 = time.perf_counter()
                hook(t0, duration, args, result)
                self.excluded += time.perf_counter() - h0
            return result

        return wrapper

    # -- hooks (run on the excluded clock) ----------------------------
    def _after_run(self, t0, duration, args, result):
        run = self._run
        run.wall = duration
        run.iterations = int(result.rows[-1].iteration)
        run.checkpoints = [(t - t0, f) for t, f in run.checkpoints]
        self.runs.append(run)
        self._run = None
        self._tracker_state = None

    def _after_objective(self, t0, duration, args, fval):
        if self._run is None:
            return
        self._run.checkpoints.append((t0 + duration, fval))
        if self._tracker_state is not None:
            self._audit(args[0], np.asarray(args[1]))

    def _after_solve(self, t0, duration, args, solution):
        box, profile = args[0], args[1]
        self.v_over_trace.append(solution.value / profile.trace)
        cert = solution.certificate
        self.pinned.append(float(np.mean((cert == box.lower) | (cert == box.upper))))

    def _after_tracker_init(self, t0, duration, args, state):
        self._tracker_state = state

    def _audit(self, problem, x) -> None:
        """Compare the tracker's box with the true gradients at x."""
        state = self._tracker_state
        box = self._originals[(tracker, "sampling_box")](state)
        if state.mode == tracker.SGD_CAUCHY_SCHWARZ:
            thetas = self._originals[(glm, "all_component_derivatives")](problem, x)
            truth = np.abs(thetas) * problem.design.row_norms
        else:
            cd_state = glm.CdState(problem, x)
            grad = glm.full_smooth_gradient(problem, cd_state)
            if problem.reg == "l2" and problem.lam > 0.0:
                grad = grad + 2.0 * problem.lam * x
            truth = np.abs(grad)
        slack = AUDIT_RTOL * (1.0 + truth)
        outside = (truth < box.lower - slack) | (truth > box.upper + slack)
        self.bound_violations += int(np.count_nonzero(outside))
        self.audited_coords += truth.size
        self.finite_frac.append(float(np.mean(np.isfinite(state.upper))))
        self.exact_frac.append(float(np.mean(state.exact_mask)))

    # -- reporting ----------------------------------------------------
    def snapshot(self) -> dict[str, float]:
        """Total span time per name so far (for per-call differences)."""
        return {name: stat.total for name, stat in self.stats.items()}

    def missing(self, required) -> list[str]:
        return [name for name in required if self.stats[name].calls == 0]
