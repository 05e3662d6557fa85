import gzip
import io
import os

import numpy as np
import pytest

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
