import csv
import os
import subprocess
import sys

import numpy as np
import pytest

from adasamp import cli, data, harness, solvers
from adasamp.harness import SpecValidationError, validate_spec

MINIMAL = """
[data]
source = synthetic
generator = ridge_benchmark
d = 20
n = 20
seed = 3

[problem]
loss = square
reg = l2
lambda = 0.1

[run safe]
method = cd
sampler = safe_adaptive
epochs = 2
seeds = 0

[run fixed]
method = cd
sampler = fixed_li
epochs = 2
seeds = 0

[run sgd]
method = sgd
sampler = safe_adaptive
stepsize = constant:0.05
epochs = 2
seeds = 0
"""


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def strip_time_columns(rows):
    header = rows[0]
    keep = [i for i, name in enumerate(header) if name not in harness.TIME_COLUMNS]
    return [[row[i] for i in keep] for row in rows]


# Data settings the generators cannot build, with the problem validation
# reports for each.
_BAD_DATA = [
    ("seed = 3", "seed = 3\nrank = 0", "rank must be at least 1"),
    ("seed = 3", "seed = 3\nscale = inf", "scale must be finite"),
    ("d = 20\n", "d = 0\n", "d must be at least 1"),
    ("d = 20\n", "d = -3\n", "d must be at least 1"),
    ("n = 20\n", "n = 0\n", "n must be at least 1"),
    ("generator = ridge_benchmark", "generator = regression\nnoise = nan",
     "noise must be finite"),
    ("generator = ridge_benchmark", "generator = regression\ndensity = nan",
     "density must be finite"),
    ("generator = ridge_benchmark", "generator = outlier_regression\noutlier_size = nan",
     "outlier_size must be finite"),
    ("generator = ridge_benchmark", "generator = regression\ndensity = -1",
     "density must be in (0, 1]"),
    ("generator = ridge_benchmark", "generator = regression\ndensity = 0",
     "density must be in (0, 1]"),
    ("generator = ridge_benchmark", "generator = classification\ndensity = 1.5",
     "density must be in (0, 1]"),
    ("generator = ridge_benchmark", "generator = outlier_regression\noutlier_fraction = -1",
     "outlier_fraction must be in [0, 1]"),
    ("generator = ridge_benchmark", "generator = outlier_regression\noutlier_fraction = 5",
     "outlier_fraction must be in [0, 1]"),
    ("seed = 3", "seed = 3\nsubsample_cols = 100",
     "subsample_cols = 100 exceeds the generated 20"),
    ("seed = 3", "seed = 3\nsubsample_rows = 21",
     "subsample_rows = 21 exceeds the generated 20"),
    ("seed = 3", "seed = 3\nsubsample_rows = -1", "subsample_rows must be nonnegative"),
    ("seed = 3", "seed = -1", "seed must be nonnegative"),
]


# Settings a run would ignore, with the one problem validation reports.
_IGNORED = [
    ("stepsize = constant:0.05", "stepsize = constant:0.05\nstepsize_value = 0.1",
     "[run sgd] unknown key 'stepsize_value' (did you mean 'stepsize'?)"),
    ("sampler = fixed_li", "sampler = fixed_li\nstepsize = big_adaptive:3",
     "[run fixed] stepsize_value is only meaningful for constant and inv_sqrt_k, "
     "not big_adaptive"),
    ("stepsize = constant:0.05", "stepsize = inv_mu_k:7",
     "[run sgd] stepsize_value is only meaningful for constant and inv_sqrt_k, not inv_mu_k"),
    ("sampler = fixed_li", "sampler = fixed_li\nmu = 5",
     "[run fixed] mu is only meaningful for inv_mu_k, not big_adaptive"),
    ("seed = 3", "seed = 3\ndensity = 0.5",
     "[data] density is not read by source = synthetic, generator = ridge_benchmark"),
    ("seed = 3", "seed = 3\npath = /tmp",
     "[data] path is not read by source = synthetic, generator = ridge_benchmark"),
    ("seed = 3", "seed = 3\nbinarize = ture", "[data] bad binarize 'ture'"),
]

# Each generator with a non-default value for every key it reads.
_GENERATED = [
    ("regression", dict(d=12, n=7, seed=4, density=0.5, solution_sparsity=0.3, noise=0.2)),
    ("classification", dict(d=9, n=11, seed=2, density=0.6)),
    ("ridge_benchmark", dict(d=15, n=13, seed=5, rank=4, scale=2.5)),
    ("outlier_regression", dict(d=16, n=6, seed=1, outlier_fraction=0.25, outlier_size=3.0)),
]


class TestValidateSpec:
    def test_minimal_config(self):
        spec = validate_spec(MINIMAL)
        assert len(spec.runs) == 3
        assert spec.lam == 0.1
        assert spec.runs[0].name == "safe"
        assert spec.runs[2].config.stepsize_value == 0.05

    def test_unknown_key_suggests_nearest(self):
        bad = MINIMAL.replace("sampler = fixed_li", "samplr = fixed_li")
        with pytest.raises(SpecValidationError) as err:
            validate_spec(bad)
        joined = " ".join(err.value.problems)
        assert "samplr" in joined and "sampler" in joined

    def test_negative_lambda(self):
        bad = MINIMAL.replace("lambda = 0.1", "lambda = -1")
        with pytest.raises(SpecValidationError) as err:
            validate_spec(bad)
        assert any("lambda" in p for p in err.value.problems)

    def test_collects_multiple_problems(self):
        bad = MINIMAL.replace("loss = square", "loss = quantile").replace(
            "reg = l2", "reg = l3"
        )
        with pytest.raises(SpecValidationError) as err:
            validate_spec(bad)
        assert len(err.value.problems) >= 2

    def test_missing_required_run_key(self):
        bad = MINIMAL.replace("sampler = fixed_li\n", "")
        with pytest.raises(SpecValidationError) as err:
            validate_spec(bad)
        assert any("sampler" in p for p in err.value.problems)

    def test_missing_data_path(self):
        bad = MINIMAL.replace(
            "source = synthetic\ngenerator = ridge_benchmark",
            "source = path\npath = /nonexistent/data.libsvm",
        )
        with pytest.raises(SpecValidationError) as err:
            validate_spec(bad)
        assert any("does not exist" in p for p in err.value.problems)

    def test_dataset_path_roundtrip(self, tmp_path):
        data_file = tmp_path / "toy.libsvm"
        data_file.write_text("1 1:1 2:3\n-1 1:2\n1 2:1 3:1\n-1 3:2\n")
        config = MINIMAL.replace(
            "source = synthetic\ngenerator = ridge_benchmark\nd = 20\nn = 20\nseed = 3",
            f"source = path\npath = {data_file}\nbinarize = true\n"
            "subsample_rows = 3\nsubsample_cols = 2\nsubsample_seed = 1",
        )
        spec = validate_spec(config)
        problem = harness.load_problem(spec)
        assert problem.design.shape == (3, 2)
        assert set(np.unique(problem.design.csc.data)) <= {1.0}
        paths = harness.run_experiment(spec, out_dir=str(tmp_path / "out"))
        assert len(paths) == 4

    def test_inv_mu_k_without_strong_convexity(self):
        # SGD defaults to the inv_mu_k schedule; with lambda = 0 and no mu
        # it has no stepsize, which validation must report, not the run.
        unregularized = MINIMAL.replace("lambda = 0.1", "lambda = 0.0")
        bad = unregularized.replace("stepsize = constant:0.05\n", "")
        with pytest.raises(SpecValidationError) as err:
            validate_spec(bad)
        assert any(p.startswith("[run sgd]") and "mu" in p for p in err.value.problems)
        with pytest.raises(SpecValidationError):
            validate_spec(bad.replace("method = sgd", "method = sgd\nmu = 0"))
        spec = validate_spec(bad.replace("method = sgd", "method = sgd\nmu = 0.5"))
        assert spec.runs[2].config.stepsize_mode == "inv_mu_k"
        assert validate_spec(MINIMAL.replace("stepsize = constant:0.05\n", "")).runs

    def test_inv_mu_k_under_l1_needs_mu(self):
        # An L1 penalty is not strongly convex, so lambda > 0 supplies no mu
        # there; validation reports it as it reports lambda = 0.
        l1 = MINIMAL.replace("reg = l2", "reg = l1")
        bad = l1.replace("stepsize = constant:0.05\n", "")
        with pytest.raises(SpecValidationError) as err:
            validate_spec(bad)
        assert any(p.startswith("[run sgd]") and "mu" in p for p in err.value.problems)
        spec = validate_spec(bad.replace("method = sgd", "method = sgd\nmu = 0.5"))
        assert spec.runs[2].config.stepsize_mode == "inv_mu_k"

    def test_exact_gram_needs_square_loss(self):
        # The exact-Gram tracker's shift holds only under constant
        # curvature; validation reports it instead of the run failing.
        gram = MINIMAL.replace(
            "sampler = safe_adaptive\nepochs = 2",
            "sampler = safe_adaptive\ntracker = cd_exact_gram\nepochs = 2",
            1,
        )
        assert validate_spec(gram).runs[0].config.tracker_mode == "cd_exact_gram"
        with pytest.raises(SpecValidationError) as err:
            validate_spec(gram.replace("loss = square", "loss = logistic"))
        assert err.value.problems == [
            "[run safe] exact-gram tracking needs constant curvature (square loss)"
        ]

    @pytest.mark.parametrize(
        "old, new",
        [
            ("lambda = 0.1", "lambda = nan"),
            ("lambda = 0.1", "lambda = inf"),
            ("stepsize = constant:0.05", "stepsize = constant:nan"),
            ("stepsize = constant:0.05", "stepsize = constant:inf"),
            ("method = sgd", "method = sgd\nmu = inf"),
            ("method = sgd", "method = sgd\nmu = 0"),
            ("method = sgd", "method = sgd\nmu = -1"),
            ("method = sgd", "method = sgd\nmetric_interval = 0"),
            ("method = sgd", "method = sgd\nmetric_interval = -3"),
        ],
    )
    def test_rejects_non_finite_or_non_positive_numbers(self, old, new):
        with pytest.raises(SpecValidationError) as err:
            validate_spec(MINIMAL.replace(old, new))
        assert len(err.value.problems) == 1

    @pytest.mark.parametrize(
        "old, new, problem",
        _BAD_DATA,
        ids=[new.strip().split("\n")[-1] for _, new, _ in _BAD_DATA],
    )
    def test_rejects_data_the_generators_cannot_build(self, old, new, problem):
        # Each of these printed ok and then ended the run in a traceback.
        with pytest.raises(SpecValidationError) as err:
            validate_spec(MINIMAL.replace(old, new, 1))
        assert err.value.problems == [f"[data] {problem}"]

    @pytest.mark.parametrize(
        "old, new, problem", _IGNORED, ids=[new.split("\n")[-1] for _, new, _ in _IGNORED]
    )
    def test_rejects_a_setting_the_run_ignores(self, old, new, problem):
        # Each of these printed ok, and the run dropped the value.
        with pytest.raises(SpecValidationError) as err:
            validate_spec(MINIMAL.replace(old, new, 1))
        assert err.value.problems == [problem]

    def test_rejects_generator_keys_for_a_path_source(self, tmp_path):
        data_file = tmp_path / "toy.libsvm"
        data_file.write_text("1 1:1 2:3\n-1 1:2\n")
        config = MINIMAL.replace(
            "source = synthetic\ngenerator = ridge_benchmark\nd = 20\nn = 20\nseed = 3",
            f"source = path\npath = {data_file}\nd = 20",
        )
        with pytest.raises(SpecValidationError) as err:
            validate_spec(config)
        assert err.value.problems == ["[data] d is not read by source = path"]

    @pytest.mark.parametrize("generator, values", _GENERATED, ids=[g for g, _ in _GENERATED])
    def test_generator_round_trip(self, generator, values):
        head = "\n".join(f"{key} = {value}" for key, value in values.items())
        config = MINIMAL.replace(
            "generator = ridge_benchmark\nd = 20\nn = 20\nseed = 3",
            f"generator = {generator}\n{head}",
        )
        problem = harness.load_problem(validate_spec(config))
        design, labels = getattr(data, f"synthetic_{generator}")(**values)
        assert problem.design.shape == design.shape
        assert (problem.design.csc != design.csc).nnz == 0
        np.testing.assert_array_equal(problem.labels, labels)
        # Every other generator's key is refused, so the generator receives
        # exactly the keys it reads.
        for key in {key for _, other in _GENERATED for key in other} - set(values):
            with pytest.raises(SpecValidationError):
                validate_spec(config.replace(head, f"{head}\n{key} = 1"))

    def test_no_runs(self):
        head = MINIMAL.split("[run safe]")[0]
        with pytest.raises(SpecValidationError):
            validate_spec(head)


class TestRunExperiment:
    def test_file_count_and_schema(self, tmp_path):
        spec = validate_spec(MINIMAL)
        paths = harness.run_experiment(spec, out_dir=str(tmp_path))
        assert len(paths) == 4  # three traces plus the summary
        trace = read_csv(paths[0])
        assert tuple(trace[0]) == harness.TRACE_COLUMNS
        assert len(trace) > 2
        summary = read_csv(paths[-1])
        assert summary[0][0] == "run"
        assert len(summary) == 4

    def test_static_sampler_has_empty_v_columns(self, tmp_path):
        spec = validate_spec(MINIMAL)
        paths = harness.run_experiment(spec, out_dir=str(tmp_path))
        fixed = [p for p in paths if "fixed" in os.path.basename(p)][0]
        rows = read_csv(fixed)
        v_idx = rows[0].index("v_k")
        assert all(row[v_idx] == "" for row in rows[1:])

    def test_determinism_excluding_time(self, tmp_path):
        spec = validate_spec(MINIMAL)
        first = harness.run_experiment(spec, out_dir=str(tmp_path / "a"))
        second = harness.run_experiment(spec, out_dir=str(tmp_path / "b"))
        for p1, p2 in zip(first, second):
            if p1.endswith("summary.csv"):
                continue
            assert strip_time_columns(read_csv(p1)) == strip_time_columns(read_csv(p2))

    def test_base_seed_offsets_recorded(self, tmp_path):
        spec = validate_spec(MINIMAL)
        paths = harness.run_experiment(spec, out_dir=str(tmp_path), base_seed=100)
        assert any("safe_seed100.csv" in p for p in paths)
        rows = read_csv([p for p in paths if "safe_seed100" in p][0])
        seed_idx = rows[0].index("seed")
        assert rows[1][seed_idx] == "100"

    def test_parallel_matches_serial(self, tmp_path):
        spec = validate_spec(MINIMAL)
        serial = harness.run_experiment(spec, out_dir=str(tmp_path / "s"), jobs=1)
        parallel = harness.run_experiment(spec, out_dir=str(tmp_path / "p"), jobs=2)
        for p1, p2 in zip(serial, parallel):
            if p1.endswith("summary.csv"):
                continue
            assert strip_time_columns(read_csv(p1)) == strip_time_columns(read_csv(p2))

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_divergent_run_flagged(self, tmp_path):
        diverging = """
[data]
source = synthetic
generator = ridge_benchmark
d = 20
n = 20
seed = 3

[problem]
loss = square
reg = l1
lambda = 0.1

[run wild]
method = sgd
sampler = uniform
stepsize = constant:1000.0
epochs = 4
seeds = 0
"""
        spec = validate_spec(diverging)
        with pytest.raises(RuntimeError):
            harness.run_experiment(spec, out_dir=str(tmp_path))
        summary = read_csv(str(tmp_path / "summary.csv"))
        status_idx = summary[0].index("status")
        assert any(row[status_idx] == "failed" for row in summary[1:])

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    @pytest.mark.parametrize("sampler", ["safe_adaptive", "optimal_full_info"])
    def test_divergent_adaptive_run_flagged(self, tmp_path, sampler):
        # The diverging run above under an adaptive sampler stops on its own
        # and is reported failed, by run_experiment and by `adasamp run`.
        head = MINIMAL.split("[run safe]")[0].replace("reg = l2", "reg = l1")
        config = tmp_path / "wild.ini"
        config.write_text(
            head + f"[run wild]\nmethod = sgd\nsampler = {sampler}\n"
            "stepsize = constant:1000.0\nepochs = 4\nseeds = 0\n"
        )
        with pytest.raises(RuntimeError):
            harness.run_experiment(
                validate_spec(config.read_text()), out_dir=str(tmp_path / "api")
            )
        assert cli.main(["run", str(config), "--out-dir", str(tmp_path / "cli")]) == 1
        for out in ("api", "cli"):
            summary = read_csv(str(tmp_path / out / "summary.csv"))
            status_idx = summary[0].index("status")
            assert [row[status_idx] for row in summary[1:]] == ["failed"]

    def test_diverged_flag_alone_fails_the_run(self, tmp_path, monkeypatch):
        # A run can stop on a non-finite step with every recorded objective
        # still finite; the flag alone must mark it failed.
        real_run = solvers.run

        def run_flagging_fixed(problem, config):
            trace = real_run(problem, config)
            trace.diverged = config.sampler == "fixed_li"
            return trace

        monkeypatch.setattr(solvers, "run", run_flagging_fixed)
        with pytest.raises(RuntimeError, match="fixed_seed0"):
            harness.run_experiment(validate_spec(MINIMAL), out_dir=str(tmp_path))
        summary = read_csv(str(tmp_path / "summary.csv"))
        status_idx = summary[0].index("status")
        failed = [row[0] for row in summary[1:] if row[status_idx] == "failed"]
        assert failed == ["fixed_seed0"]

    def test_sampler_stepsize_grid(self, tmp_path):
        grid = """
[data]
source = synthetic
generator = ridge_benchmark
d = 20
n = 20
seed = 3

[problem]
loss = square
reg = l2
lambda = 0.1

[run uniform_big]
method = cd
sampler = uniform
stepsize = big_adaptive
epochs = 2
seeds = 0

[run uniform_small]
method = cd
sampler = uniform
stepsize = small_fixed
epochs = 2
seeds = 0

[run safe_big]
method = cd
sampler = safe_adaptive
stepsize = big_adaptive
epochs = 2
seeds = 0

[run safe_small]
method = cd
sampler = safe_adaptive
stepsize = small_fixed
epochs = 2
seeds = 0

[run optimal_big]
method = cd
sampler = optimal_full_info
stepsize = big_adaptive
epochs = 2
seeds = 0

[run optimal_small]
method = cd
sampler = optimal_full_info
stepsize = small_fixed
epochs = 2
seeds = 0
"""
        spec = validate_spec(grid)
        paths = harness.run_experiment(spec, out_dir=str(tmp_path))
        traces = [p for p in paths if not p.endswith("summary.csv")]
        assert len(traces) == 6
        modes = set()
        for path in traces:
            rows = read_csv(path)
            idx = rows[0].index("stepsize_mode")
            modes.add(rows[1][idx])
        assert modes == {"big_adaptive", "small_fixed"}

    def test_timing_split_reported(self, tmp_path):
        spec = validate_spec(MINIMAL)
        paths = harness.run_experiment(spec, out_dir=str(tmp_path))
        summary = read_csv(paths[-1])
        header = summary[0]
        s_idx = header.index("sampling_time_s")
        g_idx = header.index("gradient_time_s")
        for row in summary[1:]:
            assert float(row[s_idx]) >= 0.0
            assert float(row[g_idx]) > 0.0


class TestCli:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "adasamp.cli", *args],
            capture_output=True,
            text=True,
        )

    def test_validate_ok(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(MINIMAL)
        result = self.run_cli("validate", str(cfg))
        assert result.returncode == 0
        assert "ok:" in result.stdout

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("target", ["missing.ini", "."], ids=["missing", "directory"])
    def test_unreadable_config_in_one_line(self, tmp_path, capsys, monkeypatch, command, target):
        monkeypatch.chdir(tmp_path)
        assert cli.main([command, target]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {target}: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_config_flag_is_refused(self, tmp_path, capsys):
        # The config file is positional only; a second one given by flag
        # used to replace the first without notice.
        cfg = tmp_path / "exp.ini"
        cfg.write_text(MINIMAL)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["run", str(cfg), "--config", str(cfg), "--out-dir", str(out)])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err
        assert not out.exists()

    def test_validate_bad_key(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(MINIMAL.replace("epochs = 2", "epochss = 2", 1))
        result = self.run_cli("validate", str(cfg))
        assert result.returncode == 2
        assert "epochss" in result.stderr

    def test_run_writes_files(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(MINIMAL)
        out = tmp_path / "out"
        result = self.run_cli("run", str(cfg), "--out-dir", str(out))
        assert result.returncode == 0
        listed = [line for line in result.stdout.splitlines() if line]
        assert len(listed) == 4
        assert (out / "summary.csv").exists()

    def test_sample_demo_with_oracle(self, tmp_path):
        for name, content in (("l", "1 10"), ("u", "2 11"), ("L", "1 1")):
            (tmp_path / f"{name}.txt").write_text(content + "\n")
        result = self.run_cli(
            "sample-demo",
            str(tmp_path / "l.txt"),
            str(tmp_path / "u.txt"),
            str(tmp_path / "L.txt"),
            "--oracle",
        )
        assert result.returncode == 0
        assert "value: 1.3846153846153846" in result.stdout
        assert "abs diff: 0.0" in result.stdout

    @pytest.mark.parametrize(
        "lower, upper, lipschitz, message",
        [
            ("1 2", "2", "1 1", "bound vectors must be 1-d and of equal length"),
            ("1 x", "2 3", "1 1", "{l}: could not convert string to float: 'x'"),
            ("1 2", "2 3", "1 -1", "smoothness constants must be strictly positive and finite"),
            ("3 2", "2 3", "1 1", "need lower <= upper for every coordinate"),
            ("-1 2", "2 3", "1 1", "lower bounds must be finite and nonnegative"),
            ("1 2", "2 3", "1 1 1", "box and smoothness profile disagree on dimension"),
            ("0 0", "0 0", "1 1", "all upper bounds are zero"),
        ],
        ids=["unequal_bounds", "not_a_number", "negative_L", "lower_above_upper",
             "negative_lower", "unequal_L", "all_upper_zero"],
    )
    def test_sample_demo_reports_bad_input_in_one_line(
        self, tmp_path, capsys, lower, upper, lipschitz, message
    ):
        paths = {}
        for name, content in (("l", lower), ("u", upper), ("L", lipschitz)):
            paths[name] = tmp_path / f"{name}.txt"
            paths[name].write_text(content + "\n")
        argv = ["sample-demo", str(paths["l"]), str(paths["u"]), str(paths["L"])]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message.format(l=paths['l'])}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "lower, upper, lipschitz, message",
        [
            ("1 2", "2 inf", "1 1", "enumeration needs a bounded box"),
            (" ".join(["1"] * 9), " ".join(["2"] * 9), " ".join(["1"] * 9),
             "enumeration limited to n <= 8"),
        ],
        ids=["unbounded", "too_many_directions"],
    )
    def test_sample_demo_reports_an_oracle_limit_in_one_line(
        self, tmp_path, capsys, lower, upper, lipschitz, message
    ):
        paths = []
        for name, content in (("l", lower), ("u", upper), ("L", lipschitz)):
            paths.append(str(tmp_path / f"{name}.txt"))
            (tmp_path / f"{name}.txt").write_text(content + "\n")
        assert cli.main(["sample-demo", *paths, "--oracle"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_validate_refuses_a_negative_seeds_entry(self, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(MINIMAL.replace("seeds = 0", "seeds = 2, -1", 1))
        assert cli.main(["validate", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: [run safe] seeds must be nonnegative\n"

    def test_run_refuses_a_base_seed_that_makes_a_seed_negative(self, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(MINIMAL.replace("seeds = 0", "seeds = 0, 5", 1))
        out = tmp_path / "out"
        assert cli.main(["run", str(cfg), "--out-dir", str(out), "--seed", "-3"]) == 2
        assert capsys.readouterr().err == "error: --seed -3 makes run seed -3 negative\n"
        assert not out.exists()

    def test_bench_sampler(self):
        result = self.run_cli("bench-sampler", "500", "2")
        assert result.returncode == 0
        assert "best_seconds=" in result.stdout

    @pytest.mark.parametrize(
        "bad_line, message",
        [("nan 1:1.0", "non-finite label 'nan'"), ("x 1:1.0", "bad label 'x'")],
    )
    def test_run_reports_a_bad_label_in_one_line(self, tmp_path, capsys, bad_line, message):
        data = tmp_path / "data.libsvm"
        data.write_text("1 1:0.5 2:1.0\n" + bad_line + "\n")
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            f"[data]\nsource = path\npath = {data}\n\n"
            "[problem]\nloss = square\nreg = l2\nlambda = 0.1\n\n"
            "[run fixed]\nmethod = cd\nsampler = fixed_li\nepochs = 1\nseeds = 0\n"
        )
        assert cli.main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {data}: line 2: {message}\n"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_run_reports_a_non_finite_value_in_one_line(self, tmp_path, capsys, value):
        data = tmp_path / "data.libsvm"
        data.write_text(f"1 1:0.5 2:1.0\n# comment\n-1 1:1.0 2:{value}\n1 2:2.0\n")
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            f"[data]\nsource = path\npath = {data}\n\n"
            "[problem]\nloss = square\nreg = l2\nlambda = 0.1\n\n"
            "[run fixed]\nmethod = cd\nsampler = fixed_li\nepochs = 1\nseeds = 0\n"
        )
        assert cli.main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {data}: line 3: non-finite value 2:{value}\n"

    def test_run_reports_a_refused_exact_gram_tracker_in_one_line(self, tmp_path, capsys):
        # One full row of 20001 features: the guard refuses A^T A from the
        # row lengths, before forming it, so this run ends at once.
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "[data]\nsource = synthetic\ngenerator = regression\nd = 1\nn = 20001\n\n"
            "[problem]\nloss = square\nreg = l2\nlambda = 0.1\n\n"
            "[run gram]\nmethod = cd\nsampler = safe_adaptive\ntracker = cd_exact_gram\n"
            "iterations = 10\nseeds = 0\n"
        )
        assert cli.main(["validate", str(cfg)]) == 0
        capsys.readouterr()
        assert cli.main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == (
            "error: A^T A may hold 400040001 entries, over 20000^2; use cd_cauchy_schwarz\n"
        )

    def test_run_reports_a_subsample_past_the_file_in_one_line(self, tmp_path, capsys):
        # validate cannot see the file's size; the run refuses it before
        # subsampling.
        data_file = tmp_path / "data.libsvm"
        data_file.write_text("1 1:0.5 2:1.0\n-1 1:1.0\n1 2:2.0\n")
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            f"[data]\nsource = path\npath = {data_file}\nsubsample_rows = 5\n\n"
            "[problem]\nloss = square\nreg = l2\nlambda = 0.1\n\n"
            "[run fixed]\nmethod = cd\nsampler = fixed_li\nepochs = 1\nseeds = 0\n"
        )
        assert cli.main(["validate", str(cfg)]) == 0
        capsys.readouterr()
        assert cli.main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: [data] subsample_rows = 5 exceeds the file's 3\n"
        assert captured.out == ""

    def test_run_leaves_internal_errors_a_traceback(self, tmp_path, monkeypatch):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(MINIMAL)

        def broken(*args, **kwargs):
            raise ValueError("internal")

        monkeypatch.setattr(harness, "run_experiment", broken)
        with pytest.raises(ValueError, match="internal"):
            cli.main(["run", str(cfg), "--out-dir", str(tmp_path / "out")])
