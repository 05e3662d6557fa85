"""Workload definitions: seeded input generators, INI configs and targets.

Every workload writes the files the program reads (libsvm text plus one
INI config) for its fixed data instance; the benchmark seed becomes the
base seed of the solvers' sampling seeds.  Nothing here times anything.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True)
class Workload:
    name: str
    loss: str
    reg: str
    lam: float
    method: str
    # [run NAME] sections: (name, sampler, further lines, number of seeds).
    # The safe_* metrics come from safe_adaptive runs, static_* from fixed_li.
    runs: tuple[tuple[str, str, str, int], ...]
    # Budget and checkpoint lines shared by every run section.
    budget: str
    # Relative suboptimality (f - f*) / |f*| that defines time-to-target.
    target: float
    # Call sites that must see at least one call in a traced run.
    required: tuple[str, ...]
    # Seed of the data instance.  It is fixed, so the benchmark seed varies
    # only the solvers' sampling seeds: between random instances the
    # iteration at which a run reaches the target moves with f*, by as much
    # as the timing noise or more.
    instance: int

    def expected_runs(self, base_seed: int) -> list[tuple[str, str, int]]:
        """(trace CSV name, sampler, seed) in the order the program runs them."""
        out = []
        for name, sampler, _, count in self.runs:
            for offset in range(count):
                seed = base_seed + offset
                out.append((f"{name}_seed{seed}.csv", sampler, seed))
        return out


_COMMON_REQUIRED = (
    "sampling.solve", "sampling.draw", "tracker.update", "tracker.box",
    "tracker.init", "glm.objective", "glm.lipschitz", "solvers.run",
    "data.design", "harness.validate", "harness.load_problem",
    "harness.write_csv", "harness.run_experiment", "cli.main",
)

WORKLOADS = {
    "cd-sparse-wide": Workload(
        name="cd-sparse-wide",
        loss="square", reg="l2", lam=0.1, method="cd",
        runs=(
            ("static_li", "fixed_li", "", 1),
            ("safe_cs", "safe_adaptive", "tracker = cd_cauchy_schwarz", 1),
        ),
        budget="epochs = 2\nmetric_interval = 250",
        target=0.3,
        required=_COMMON_REQUIRED + ("glm.coord_grad", "glm.apply_step", "data.parse"),
        # f(0) - f* differs by about 4% between instances, which moves the
        # target iteration by 1000 or more late in the run, where a safe
        # iteration costs the most.
        instance=0,
    ),
    "sgd-text": Workload(
        name="sgd-text",
        loss="logistic", reg="l1", lam=1e-4, method="sgd",
        runs=(
            ("static_li", "fixed_li", "stepsize = constant:0.01", 2),
            ("safe_cs", "safe_adaptive",
             "tracker = sgd_cauchy_schwarz\nstepsize = constant:0.01", 2),
        ),
        budget="iterations = 6000\nmetric_interval = 100",
        target=1.0,
        required=_COMMON_REQUIRED + ("glm.component", "glm.prox", "data.parse"),
        # Between random corpora the target iteration varies by 15%.
        instance=0,
    ),
    "desk-ridge": Workload(
        name="desk-ridge",
        loss="square", reg="l2", lam=0.1, method="cd",
        runs=(
            ("uniform", "uniform", "", 8),
            ("static_li", "fixed_li", "", 128),
            ("full_info", "optimal_full_info", "", 8),
            ("safe_gram", "safe_adaptive", "tracker = cd_exact_gram", 96),
        ),
        budget="epochs = 30\nmetric_interval = 50",
        target=0.25,
        required=_COMMON_REQUIRED + (
            "glm.coord_grad", "glm.apply_step", "sampling.full_info",
            "glm.full_grad", "data.generate",
        ),
        # At d = n = 50 the suboptimality after a fixed budget differs about
        # 4x between random instances.
        instance=0,
    ),
}


def _write_libsvm(path: str, csr: sp.csr_matrix, labels: np.ndarray) -> None:
    csr.sort_indices()
    indptr, indices, data = csr.indptr, csr.indices + 1, csr.data
    with open(path, "w", encoding="utf-8") as handle:
        for r in range(csr.shape[0]):
            s, e = indptr[r], indptr[r + 1]
            pairs = " ".join(f"{j}:{v!r}" for j, v in zip(indices[s:e].tolist(),
                                                         data[s:e].tolist()))
            handle.write(f"{float(labels[r])!r} {pairs}".rstrip() + "\n")


def sparse_wide(seed: int) -> tuple[sp.csr_matrix, np.ndarray]:
    """20000 x 10000 uniform-valued design, density 1e-3, columns scaled
    by linspace(0.5, 2), N(0, 1) labels."""
    rng = np.random.default_rng(seed)
    d, n = 20000, 10000
    design = sp.random(d, n, density=1e-3, format="csc", random_state=rng)
    design = design @ sp.diags(np.linspace(0.5, 2.0, n))
    labels = rng.standard_normal(d)
    return sp.csr_matrix(design), labels


STOP_WORDS = 100


def text_bow(seed: int) -> tuple[sp.csr_matrix, np.ndarray]:
    """10^4 binarized documents over a Zipf(1.1) vocabulary of 10^5 words,
    with +-1 labels from a sparse planted hyperplane on the 10^4 most
    frequent words."""
    rng = np.random.default_rng(seed)
    docs, vocab = 10000, 100000
    # Word ranks start after the STOP_WORDS most frequent ones, which a
    # bag-of-words pipeline drops; each remaining rank is one column.
    ranks = np.arange(STOP_WORDS + 1, STOP_WORDS + vocab + 1, dtype=np.float64)
    cdf = np.cumsum(ranks**-1.1)
    cdf /= cdf[-1]
    lengths = rng.poisson(105, size=docs)
    tokens = np.searchsorted(cdf, rng.random(int(lengths.sum())), side="right")
    tokens = np.minimum(tokens, vocab - 1)
    rows = np.repeat(np.arange(docs), lengths)
    design = sp.csr_matrix(
        (np.ones(tokens.size), (rows, tokens)), shape=(docs, vocab)
    )
    design.sum_duplicates()
    design.data[:] = 1.0
    planted = np.zeros(vocab)
    planted[: vocab // 10] = rng.standard_normal(vocab // 10)
    # Centre and scale the planted margins so that every seed gets balanced
    # labels with the same share of label noise.
    margins = design @ planted
    margins = (margins - np.median(margins)) / np.std(margins)
    labels = np.where(margins + 0.5 * rng.standard_normal(docs) >= 0.0, 1.0, -1.0)
    return design, labels


def base_seed(seed: int) -> int:
    """Base seed handed to ``adasamp run --seed``; offsets the solver seeds."""
    return 1000 * seed


def write_inputs(workload: Workload, directory: str) -> dict:
    """Write the workload's inputs into ``directory``.

    Returns the INI path and the problem in memory for the reference solver.
    """
    os.makedirs(directory, exist_ok=True)
    lines = ["[data]"]
    out = {}
    if workload.name == "desk-ridge":
        lines += ["source = synthetic", "generator = ridge_benchmark",
                  "d = 50", "n = 50", f"seed = {workload.instance}"]
        out["data_path"] = None
    else:
        make = sparse_wide if workload.name == "cd-sparse-wide" else text_bow
        design, labels = make(workload.instance)
        data_path = os.path.join(directory, "data.libsvm")
        _write_libsvm(data_path, design, labels)
        lines += ["source = path", f"path = {data_path}"]
        out.update(design=design, labels=labels, data_path=data_path)
    lines += ["", "[problem]", f"loss = {workload.loss}", f"reg = {workload.reg}",
              f"lambda = {workload.lam!r}", ""]
    for name, sampler, extra, count in workload.runs:
        lines += [f"[run {name}]", f"method = {workload.method}", f"sampler = {sampler}",
                  extra, workload.budget, "seeds = " + " ".join(map(str, range(count))), ""]
    ini_path = os.path.join(directory, "experiment.ini")
    with open(ini_path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines))
    out["ini"] = ini_path
    return out
