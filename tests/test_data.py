import gzip
import io
import os
import random

import numpy as np
import pytest
import scipy.sparse as sp

from adasamp import data
from adasamp.data import (
    LibsvmParseError,
    SparseDesign,
    binarize,
    parse_libsvm,
    subsample,
    synthetic_classification,
    synthetic_outlier_regression,
    synthetic_regression,
    synthetic_ridge_benchmark,
    write_libsvm,
)


class TestParseLibsvm:
    def test_basic(self):
        design, labels = parse_libsvm("+1 3:1 7:1\n-1 1:1\n")
        assert design.shape == (2, 7)
        np.testing.assert_array_equal(labels, [1.0, -1.0])
        dense = design.toarray()
        assert dense[0, 2] == 1.0 and dense[0, 6] == 1.0 and dense[1, 0] == 1.0
        assert dense.sum() == 3.0

    def test_empty_feature_line_accepted(self):
        design, labels = parse_libsvm("1 2:1\n1\n")
        assert design.shape == (2, 2)
        assert design.toarray()[1].sum() == 0.0

    def test_malformed_value(self):
        with pytest.raises(LibsvmParseError) as err:
            parse_libsvm("1 3:a\n")
        assert err.value.line_no == 1

    def test_non_increasing_indices(self):
        with pytest.raises(LibsvmParseError):
            parse_libsvm("1 3:1 2:1\n")

    def test_duplicate_indices(self):
        with pytest.raises(LibsvmParseError):
            parse_libsvm("1 3:1 3:2\n")

    @pytest.mark.parametrize("label", ["one", "nan", "-inf"])
    def test_bad_label(self, label):
        with pytest.raises(LibsvmParseError) as err:
            parse_libsvm(f"1 2:1\n{label} 1:1\n")
        assert err.value.line_no == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value(self, value):
        with pytest.raises(LibsvmParseError) as err:
            parse_libsvm(f"1 2:1\n# comment\n-1 1:{value}\n1 1:2\n")
        assert err.value.line_no == 3

    def test_empty_input(self):
        with pytest.raises(LibsvmParseError):
            parse_libsvm(io.StringIO(""))

    def test_gzip_path(self, tmp_path):
        path = tmp_path / "data.libsvm.gz"
        with gzip.open(path, "wt") as handle:
            handle.write("1 1:2.5\n-1 2:1\n")
        design, labels = parse_libsvm(str(path))
        assert design.shape == (2, 2)
        assert design.toarray()[0, 0] == 2.5

    def test_round_trip(self):
        text = "1.0 1:2.5 3:-1.25\n-1.0 2:7.0\n0.5 1:1.0\n"
        design, labels = parse_libsvm(text)
        buffer = io.StringIO()
        write_libsvm(design, labels, buffer)
        design2, labels2 = parse_libsvm(buffer.getvalue())
        np.testing.assert_array_equal(labels, labels2)
        np.testing.assert_array_equal(design.toarray(), design2.toarray())


# A blank line and a comment line sit above the bad line, which is line 4.
ABOVE = "1 2:1\n\n# comment\n"


def assert_same_design(got, want):
    """Bit-for-bit equality of both layouts, both norm vectors and the shape."""
    assert got.shape == want.shape
    for layout in ("csr", "csc"):
        for name in ("indptr", "indices", "data"):
            a, b = getattr(getattr(got, layout), name), getattr(getattr(want, layout), name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (layout, name)
    assert got.column_norms.tobytes() == want.column_norms.tobytes()
    assert got.row_norms.tobytes() == want.row_norms.tobytes()


class TestLibsvmErrors:
    @pytest.mark.parametrize(
        "bad_line, kind",
        [
            ("one 1:1", "bad label"),
            ("1_0 1:1", "bad label"),
            ("inf 1:1", "non-finite label"),
            ("1 3", "missing ':'"),
            ("1 2:1 #", "missing ':'"),
            ("1 x:1", "bad pair"),
            ("1 1.5:2", "bad pair"),
            ("1 +3:2", "bad pair"),
            ("1 :2", "bad pair"),
            ("1 3:", "bad pair"),
            ("1 3:1:2", "bad pair"),
            ("1 1_0:2", "bad pair"),
            ("1 1:1_0.5", "bad pair"),
            ("1 3:a", "bad pair"),
            ("1 1:0x10", "bad pair"),
            ("1 0:1", "index 0 < 1"),
            ("1 3:1 2:1", "index 2 not increasing (previous 3)"),
            ("1 3:1 3:2", "index 3 not increasing (previous 3)"),
            ("1 2:1 9007199254740992:1", "too large"),
            ("1 2:1 3:nan", "non-finite value 3:nan"),
            ("1 3:-inf", "non-finite value 3:-inf"),
            ("1 3:1e999", "non-finite value 3:inf"),
        ],
    )
    def test_names_the_line_and_the_kind(self, bad_line, kind):
        with pytest.raises(LibsvmParseError) as err:
            parse_libsvm(ABOVE + bad_line + "\n1 1:2\n")
        assert err.value.line_no == 4
        assert kind in str(err.value)

    def test_first_bad_line_wins(self):
        with pytest.raises(LibsvmParseError) as err:
            parse_libsvm(ABOVE + "1 3:nan\n1 2:1 1:1\n")
        assert err.value.line_no == 4
        assert "non-finite value" in str(err.value)

    def test_line_numbers_are_absolute_across_blocks(self):
        line = "1 " + " ".join(f"{j}:0.25" for j in range(1, 40)) + "\n"
        n_lines = 2 * data._BLOCK_BYTES // len(line) + 500
        text = "# header\n\n" + line * n_lines + "-1 5:1 4:1\n" + line * 3
        assert len(text) > 2 * data._BLOCK_BYTES
        with pytest.raises(LibsvmParseError) as err:
            parse_libsvm(text)
        assert err.value.line_no == n_lines + 3
        assert "index 4 not increasing" in str(err.value)

    def test_many_small_blocks(self, monkeypatch):
        monkeypatch.setattr(data, "_BLOCK_BYTES", 16)
        text = "".join(f"{i % 3 - 1} {i % 7 + 1}:{i}\n\n# note\n" for i in range(50))
        design, labels = parse_libsvm(text)
        assert design.shape == (50, 7)
        np.testing.assert_array_equal(labels, [i % 3 - 1 for i in range(50)])
        with pytest.raises(LibsvmParseError) as err:
            parse_libsvm(text + "1 2:1 2:1\n")
        assert err.value.line_no == 151


# Line pieces for the seeded agreement test: well-formed tokens and the
# fragments that break them.
_GOOD_LABELS = ["1", "-1", "0.5", "+1", "2e1"]
_GOOD_VALUES = ["1", "0", "-2.5", "1e-3", ".5", "7.", "-0.0"]
_FRAGMENTS = [
    "1", "0", "10", "+1", "-1", ".5", "1e3", "nan", "inf", "_", "x", ":", " ",
    "\t", "\r", "\x0b", "\x1c", "\x00", "#", "é", "\xa0", "0x1", "1_0",
    "e", "-", "000", "3:", ":4",
]


def _random_line(rng: random.Random) -> str:
    columns = sorted(rng.sample(range(1, 30), rng.randrange(0, 5)))
    tokens = [rng.choice(_GOOD_LABELS)]
    tokens += [f"{j}:{rng.choice(_GOOD_VALUES)}" for j in columns]
    line = rng.choice([" ", "\t", "  "]).join(tokens)
    if rng.random() < 0.6:
        at = rng.randrange(len(line) + 1)
        line = line[:at] + rng.choice(_FRAGMENTS) + line[at + rng.randrange(2):]
    return line


def _reference_parse(lines: list[str]):
    """Line-by-line reference: (labels, rows of (column, value)) with
    Python's int and float, or the number of the first bad line."""
    labels, rows = [], []
    for number, line in enumerate(lines, start=1):
        stripped = line.encode("utf-8").strip()
        if not stripped or stripped.startswith(b"#"):
            continue
        if data._line_error(stripped) is not None:
            return number
        head, *body = stripped.split(None, 1)
        labels.append(float(head))
        pairs = [token.split(b":") for token in (body[0].split() if body else [])]
        rows.append([(int(j) - 1, float(v)) for j, v in pairs])
    return labels, rows


class TestParseAgreement:
    """The block-wise parse accepts exactly the lines that the per-line rules
    accept, names the same first bad line, and reads the same numbers as
    Python's int and float."""

    @pytest.mark.parametrize("block_bytes", [1 << 20, 24])
    def test_seeded_random_lines(self, monkeypatch, block_bytes):
        monkeypatch.setattr(data, "_BLOCK_BYTES", block_bytes)
        rng = random.Random(25)
        accepted = rejected = 0
        for _ in range(400):
            lines = [_random_line(rng) for _ in range(rng.randrange(1, 6))]
            expected = _reference_parse(lines)
            text = "\n".join(lines) + "\n"
            if isinstance(expected, int):
                with pytest.raises(LibsvmParseError) as err:
                    parse_libsvm(text)
                assert err.value.line_no == expected, text
                rejected += 1
                continue
            labels, rows = expected
            if not labels:
                continue
            design, got_labels = parse_libsvm(text)
            assert got_labels.tolist() == labels
            for i, row in enumerate(rows):
                columns, values = design.row(i)
                assert columns.tolist() == [j for j, _ in row]
                assert values.tobytes() == np.array([v for _, v in row]).tobytes()
            accepted += 1
        assert accepted > 50 and rejected > 50


class TestParseLayouts:
    def test_separators_and_line_endings(self):
        plain = parse_libsvm("1 1:2 3:4\n-1\n0.5 2:1\n")
        for text in [
            "1\t1:2\t3:4\n-1\n0.5\t2:1\n",
            "1   1:2  3:4\n-1\n0.5     2:1\n",
            "1 1:2 3:4\r\n-1\r\n0.5 2:1\r\n",
            "  1 1:2 3:4  \n\t-1\t\n 0.5 2:1 \n",
            "1 1:2 3:4\n-1\n0.5 2:1",
            "\n# head\n1 1:2 3:4\n\n-1\n# mid\n0.5 2:1\n\n",
        ]:
            design, labels = parse_libsvm(text)
            assert_same_design(design, plain[0])
            assert labels.tobytes() == plain[1].tobytes()

    def test_label_only_lines_first_and_last(self):
        design, labels = parse_libsvm("1\n-1 2:3\n1\n")
        assert design.shape == (3, 2)
        np.testing.assert_array_equal(design.csr.indptr, [0, 0, 1, 1])
        np.testing.assert_array_equal(labels, [1.0, -1.0, 1.0])

    def test_only_label_lines(self):
        design, labels = parse_libsvm("1\n-1\n")
        assert design.shape == (2, 0)
        assert design.csr.nnz == 0

    def test_explicit_zeros_are_stored(self):
        design, _ = parse_libsvm("1 1:0 2:1\n-1 3:-0.0\n")
        assert design.csr.nnz == design.csc.nnz == 3
        np.testing.assert_array_equal(design.csr.indices, [0, 1, 2])
        assert design.csr.data.tobytes() == np.array([0.0, 1.0, -0.0]).tobytes()

    def test_comment_only_input_is_empty(self):
        with pytest.raises(LibsvmParseError) as err:
            parse_libsvm("# nothing\n\n")
        assert err.value.line_no == 0

    def test_every_source_kind(self, tmp_path):
        text = "1 1:2.5 4:-1\n# c\n-1 2:1e-3\n"
        want = parse_libsvm(text)
        plain = tmp_path / "data.libsvm"
        plain.write_text(text)
        packed = tmp_path / "data.libsvm.gz"
        with gzip.open(packed, "wt") as handle:
            handle.write(text)
        for source in (str(plain), plain, str(packed), io.StringIO(text)):
            design, labels = parse_libsvm(source)
            assert_same_design(design, want[0])
            assert labels.tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("seed", range(5))
    def test_seeded_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        d, n = int(rng.integers(1, 40)), int(rng.integers(2, 60))
        matrix = sp.random(d, n, density=0.15, format="csr", random_state=rng)
        matrix.data = rng.standard_normal(matrix.nnz) * 10.0 ** rng.integers(-30, 30, matrix.nnz)
        # Empty rows and an empty inner column, and a last column that is
        # used, so that the largest index gives the same width.
        dense = matrix.toarray()
        dense[rng.random(d) < 0.3] = 0.0
        dense[:, n // 2] = 0.0
        dense[0, n - 1] = 1.5
        keep = sp.csr_matrix(dense)
        keep.data[::5] = 0.0  # explicit zeros survive the round trip
        original = SparseDesign.from_matrix(keep)
        labels = rng.standard_normal(d)
        buffer = io.StringIO()
        write_libsvm(original, labels, buffer)
        design, got = parse_libsvm(buffer.getvalue())
        assert_same_design(design, original)
        assert got.tobytes() == labels.tobytes()


class TestBinarize:
    def test_values_become_one(self):
        design, _ = parse_libsvm("1 1:0.5 2:2 3:-3\n")
        flat = binarize(design)
        np.testing.assert_array_equal(flat.csc.data, 1.0)
        assert flat.shape == design.shape

    def test_idempotent(self):
        design, _ = parse_libsvm("1 1:1 3:1\n-1 2:1\n")
        once = binarize(design)
        twice = binarize(once)
        np.testing.assert_array_equal(once.toarray(), twice.toarray())

    def test_column_norms_count_nonzeros(self):
        design, _ = parse_libsvm("1 1:5 2:1\n1 1:-2\n1 1:9\n")
        flat = binarize(design)
        np.testing.assert_allclose(flat.column_norms, [np.sqrt(3.0), 1.0])


class TestSubsample:
    def test_identity_preserves_order(self):
        design, labels = parse_libsvm("1 1:1\n2 2:1\n3 3:1\n")
        sub, sub_labels = subsample(design, labels, 3, 3, seed=0)
        np.testing.assert_array_equal(sub.toarray(), design.toarray())
        np.testing.assert_array_equal(sub_labels, labels)

    def test_deterministic(self):
        design, labels = synthetic_regression(12, 9, seed=5)
        a1 = subsample(design, labels, 6, 4, seed=3)
        a2 = subsample(design, labels, 6, 4, seed=3)
        np.testing.assert_array_equal(a1[0].toarray(), a2[0].toarray())
        np.testing.assert_array_equal(a1[1], a2[1])

    def test_shape_and_label_alignment(self):
        design, labels = synthetic_regression(10, 8, seed=1)
        sub, sub_labels = subsample(design, labels, 4, 5, seed=9)
        assert sub.shape == (4, 5)
        assert sub_labels.shape == (4,)

    def test_rejects_oversized(self):
        design, labels = synthetic_regression(5, 5, seed=0)
        with pytest.raises(ValueError):
            subsample(design, labels, 6, 5, seed=0)

    def test_keeps_empty_columns(self):
        design, labels = parse_libsvm("1 1:1\n1 1:1\n1 2:1\n")
        sub, _ = subsample(design, labels, 2, 2, seed=4)
        assert sub.shape == (2, 2)


class TestSparseDesign:
    def test_norm_caches(self):
        design, _ = parse_libsvm("1 1:3 2:4\n1 1:4\n")
        dense = design.toarray()
        np.testing.assert_allclose(design.column_norms, np.linalg.norm(dense, axis=0))
        np.testing.assert_allclose(design.row_norms, np.linalg.norm(dense, axis=1))

    def test_column_row_views(self):
        design, _ = parse_libsvm("1 1:3 2:4\n1 1:4\n")
        rows, vals = design.column(0)
        np.testing.assert_array_equal(rows, [0, 1])
        np.testing.assert_array_equal(vals, [3.0, 4.0])
        idx, vals = design.row(0)
        np.testing.assert_array_equal(idx, [0, 1])
        np.testing.assert_array_equal(vals, [3.0, 4.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SparseDesign.from_matrix(np.array([[np.inf, 0.0]]))

    def test_csr_input_matches_other_inputs(self):
        rng = np.random.default_rng(3)
        matrix = sp.random(30, 20, density=0.2, format="csr", random_state=rng)
        matrix.data[::4] = 0.0
        want = SparseDesign.from_matrix(matrix.tocoo())
        for source in (matrix, matrix.tocsc(), sp.csr_array(matrix)):
            assert_same_design(SparseDesign.from_matrix(source), want)


class TestGenerators:
    def test_regression_shapes_and_determinism(self):
        d1, b1 = synthetic_regression(20, 10, seed=3, density=0.5)
        d2, b2 = synthetic_regression(20, 10, seed=3, density=0.5)
        assert d1.shape == (20, 10) and b1.shape == (20,)
        np.testing.assert_array_equal(d1.toarray(), d2.toarray())
        np.testing.assert_array_equal(b1, b2)

    def test_classification_labels(self):
        _, labels = synthetic_classification(30, 5, seed=2)
        assert set(np.unique(labels)) <= {-1.0, 1.0}

    def test_ridge_benchmark_rank(self):
        design, _ = synthetic_ridge_benchmark(0, d=40, n=40, rank=15)
        s = np.linalg.svd(design.toarray(), compute_uv=False)
        assert np.sum(s > 1e-10) == 15

    def test_outlier_regression_has_outliers(self):
        _, labels = synthetic_outlier_regression(1, d=100, n=10, outlier_size=8.0)
        assert np.max(np.abs(labels)) > 5.0
