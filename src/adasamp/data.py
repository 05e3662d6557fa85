"""Dataset ingestion and preprocessing.

Parses libsvm-formatted text into a dual-layout sparse design matrix,
applies bag-of-words binarization and random row/column subsampling, and
provides synthetic problem generators for desk-scale experiments.
"""

from __future__ import annotations

import gzip
import io
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp


class LibsvmParseError(ValueError):
    """Raised on malformed libsvm input; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass
class SparseDesign:
    """Design matrix stored in both column-major and row-major layouts.

    Rows are samples, columns are features.  Column norms serve the
    coordinate view (one feature per direction), row norms the component
    view (one sample per direction).
    """

    csc: sp.csc_matrix
    csr: sp.csr_matrix
    column_norms: np.ndarray = field(init=False)
    row_norms: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.csc.shape != self.csr.shape:
            raise ValueError("layout shape mismatch")
        if not np.all(np.isfinite(self.csc.data)):
            raise ValueError("design matrix contains non-finite values")
        self.csc.sort_indices()
        self.csr.sort_indices()
        self.column_norms = np.sqrt(
            np.asarray(self.csc.multiply(self.csc).sum(axis=0)).ravel()
        )
        self.row_norms = np.sqrt(
            np.asarray(self.csr.multiply(self.csr).sum(axis=1)).ravel()
        )

    @classmethod
    def from_matrix(cls, matrix) -> "SparseDesign":
        csc = sp.csc_matrix(matrix, dtype=np.float64)
        return cls(csc=csc, csr=csc.tocsr())

    @property
    def shape(self) -> tuple[int, int]:
        return self.csc.shape

    @property
    def n_rows(self) -> int:
        return self.csc.shape[0]

    @property
    def n_cols(self) -> int:
        return self.csc.shape[1]

    def column(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """(row indices, values) of column j without densifying."""
        s, e = self.csc.indptr[j], self.csc.indptr[j + 1]
        return self.csc.indices[s:e], self.csc.data[s:e]

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """(column indices, values) of row i without densifying."""
        s, e = self.csr.indptr[i], self.csr.indptr[i + 1]
        return self.csr.indices[s:e], self.csr.data[s:e]

    def toarray(self) -> np.ndarray:
        return self.csc.toarray()


def _open_text(path):
    if str(path).endswith(".gz"):
        return io.TextIOWrapper(gzip.open(path, "rb"), encoding="utf-8")
    return open(path, "r", encoding="utf-8")


def parse_libsvm(source) -> tuple[SparseDesign, np.ndarray]:
    """Parse libsvm text (`<label> <index>:<value> ...`, 1-based indices).

    `source` may be a path (``.gz`` accepted), an open text stream, or a
    string of lines.  The feature dimension is the maximum index seen.
    Duplicate or non-increasing indices within a line, and non-finite labels
    or feature values, are rejected with the line number.
    """
    if isinstance(source, str) and "\n" in source:
        stream = io.StringIO(source)
        close = False
    elif hasattr(source, "read"):
        stream = source
        close = False
    else:
        stream = _open_text(source)
        close = True

    labels: list[float] = []
    line_nos: list[int] = []
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    n_features = 0
    n_samples = 0
    try:
        for line_no, line in enumerate(stream, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            try:
                label = float(tokens[0])
            except ValueError:
                raise LibsvmParseError(line_no, f"bad label {tokens[0]!r}") from None
            if not math.isfinite(label):
                raise LibsvmParseError(line_no, f"non-finite label {tokens[0]!r}")
            prev_idx = 0
            for tok in tokens[1:]:
                idx_s, _, val_s = tok.partition(":")
                if not val_s:
                    raise LibsvmParseError(line_no, f"missing ':' in {tok!r}")
                try:
                    idx = int(idx_s)
                    val = float(val_s)
                except ValueError:
                    raise LibsvmParseError(line_no, f"bad pair {tok!r}") from None
                if idx < 1:
                    raise LibsvmParseError(line_no, f"index {idx} < 1")
                if idx <= prev_idx:
                    raise LibsvmParseError(
                        line_no, f"index {idx} not increasing (previous {prev_idx})"
                    )
                prev_idx = idx
                rows.append(n_samples)
                cols.append(idx - 1)
                vals.append(val)
                n_features = max(n_features, idx)
            labels.append(label)
            line_nos.append(line_no)
            n_samples += 1
    finally:
        if close:
            stream.close()

    if n_samples == 0:
        raise LibsvmParseError(0, "empty input")
    values = np.asarray(vals, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(values))  # one pass, not a check per token
    if bad.size:
        k = bad[0]
        raise LibsvmParseError(line_nos[rows[k]], f"non-finite value {cols[k] + 1}:{vals[k]!r}")
    coo = sp.coo_matrix(
        (values, (rows, cols)), shape=(n_samples, n_features), dtype=np.float64
    )
    return SparseDesign.from_matrix(coo), np.asarray(labels, dtype=np.float64)


def write_libsvm(design: SparseDesign, labels: np.ndarray, stream) -> None:
    """Serialize back to libsvm text (1-based indices, repr-exact values)."""
    for i in range(design.n_rows):
        idx, val = design.row(i)
        pairs = " ".join(f"{j + 1}:{float(v)!r}" for j, v in zip(idx, val))
        stream.write(f"{float(labels[i])!r} {pairs}".rstrip() + "\n")


def binarize(design: SparseDesign) -> SparseDesign:
    """Set every stored nonzero to 1.0 (bag-of-words); pattern unchanged."""
    csc = design.csc.copy()
    csc.data[:] = 1.0
    return SparseDesign(csc=csc, csr=csc.tocsr())


def subsample(
    design: SparseDesign,
    labels: np.ndarray,
    n_rows: int,
    n_cols: int,
    seed: int,
) -> tuple[SparseDesign, np.ndarray]:
    """Uniform without-replacement row and column selection, kept in the
    original order.

    Empty rows/columns in the result are retained, matching a literal
    random selection.
    """
    d, n = design.shape
    if n_rows > d or n_cols > n:
        raise ValueError(f"requested {n_rows}x{n_cols} exceeds {d}x{n}")
    rng = np.random.default_rng(seed)
    row_sel = np.sort(rng.choice(d, size=n_rows, replace=False))
    col_sel = np.sort(rng.choice(n, size=n_cols, replace=False))
    sub = design.csr[row_sel][:, col_sel]
    return SparseDesign.from_matrix(sub), labels[row_sel]


def synthetic_regression(
    d: int,
    n: int,
    seed: int,
    density: float = 1.0,
    column_scales: np.ndarray | None = None,
    solution_sparsity: float = 1.0,
    noise: float = 0.1,
) -> tuple[SparseDesign, np.ndarray]:
    """Random (sparse) Gaussian design with a planted least-squares solution.

    `column_scales` rescales each feature column (heterogeneous curvature);
    `solution_sparsity` is the fraction of nonzero planted coefficients.
    Labels are ``A x* + noise``.
    """
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((d, n)) / np.sqrt(d)
    if density < 1.0:
        mask = rng.random((d, n)) < density
        dense = dense * mask
    if column_scales is not None:
        dense = dense * np.asarray(column_scales, dtype=np.float64)[None, :]
    x_star = rng.standard_normal(n)
    if solution_sparsity < 1.0:
        keep = rng.random(n) < solution_sparsity
        x_star = x_star * keep
    b = dense @ x_star + noise * rng.standard_normal(d)
    return SparseDesign.from_matrix(dense), b


def synthetic_ridge_benchmark(
    seed: int,
    d: int = 50,
    n: int = 50,
    rank: int = 20,
    scale: float = 1.5,
) -> tuple[SparseDesign, np.ndarray]:
    """Rank-deficient least-squares instance with heterogeneous columns.

    The design has numerical rank below n, so with an L2 term the ridge
    weight alone sets the strong convexity and coordinate descent stays
    mid-convergence over tens of epochs, keeping sampler differences
    visible.  Column norms vary 4x to give the static distribution
    something to be wrong about.
    """
    rng = np.random.default_rng(seed)
    left = rng.standard_normal((d, rank)) / np.sqrt(d)
    right = rng.standard_normal((rank, n))
    dense = left @ right * (scale / np.sqrt(rank))
    dense *= np.linspace(0.5, 2.0, n)[None, :]
    x_star = rng.standard_normal(n) * (rng.random(n) < 0.3)
    b = dense @ x_star + 0.05 * rng.standard_normal(d)
    return SparseDesign.from_matrix(dense), b


def synthetic_outlier_regression(
    seed: int,
    d: int = 200,
    n: int = 25,
    outlier_fraction: float = 0.1,
    outlier_size: float = 8.0,
) -> tuple[SparseDesign, np.ndarray]:
    """Homogeneous design with a fraction of far-off labels.

    The outlier rows keep large residuals, spreading component gradient
    norms over an order of magnitude; useful for exercising non-uniform
    sampling over samples.
    """
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((d, n)) / np.sqrt(n)
    x_star = rng.standard_normal(n)
    b = dense @ x_star + 0.1 * rng.standard_normal(d)
    out = rng.random(d) < outlier_fraction
    b[out] += outlier_size * np.sign(rng.standard_normal(int(out.sum())))
    return SparseDesign.from_matrix(dense), b


def synthetic_classification(
    d: int, n: int, seed: int, density: float = 1.0
) -> tuple[SparseDesign, np.ndarray]:
    """Random Gaussian design with +-1 labels from a planted hyperplane."""
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((d, n)) / np.sqrt(n)
    if density < 1.0:
        mask = rng.random((d, n)) < density
        dense = dense * mask
    w = rng.standard_normal(n)
    b = np.sign(dense @ w + 0.1 * rng.standard_normal(d))
    b[b == 0] = 1.0
    return SparseDesign.from_matrix(dense), b
