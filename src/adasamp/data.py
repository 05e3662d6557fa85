"""Dataset ingestion and preprocessing.

Parses libsvm-formatted text into a dual-layout sparse design matrix,
applies bag-of-words binarization and random row/column subsampling, and
provides synthetic problem generators for desk-scale experiments.
"""

from __future__ import annotations

import gzip
import io
import warnings
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
        """Both layouts of `matrix`; a CSR input is kept and converted once."""
        if sp.issparse(matrix) and matrix.format == "csr":
            csr = sp.csr_matrix(matrix, dtype=np.float64)
            return cls(csc=csr.tocsc(), csr=csr)
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


# Lines are read in blocks of about this many bytes; each block is checked
# and converted with a few numpy passes.
_BLOCK_BYTES = 1 << 20

# Indices must stay below this bound, far above any design that fits in
# memory, so that reading one more digit cannot overflow int64.
_INDEX_LIMIT = 2**53


def _open_bytes(source):
    """(binary or text stream, whether to close it) for a parse_libsvm source."""
    if isinstance(source, str) and "\n" in source:
        return io.BytesIO(source.encode("utf-8")), False
    if hasattr(source, "read"):
        return source, False
    if str(source).endswith(".gz"):
        return gzip.open(source, "rb"), True
    return open(source, "rb"), True


def _floats(text: bytes, count: int) -> np.ndarray | None:
    """The numbers in whitespace-separated `text`, or None unless it holds
    exactly `count` of them, each spelled as a whole token."""
    with warnings.catch_warnings():
        # Older numpy warns where a token fails, and returns what it read.
        warnings.simplefilter("error", DeprecationWarning)
        try:
            values = np.fromstring(text, sep=" ")
        except (ValueError, DeprecationWarning):
            return None
    return values if values.size == count else None


def _pairs(body: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """(indices, values) of `body` if it is tokens `<index>:<value>`
    separated by ASCII whitespace, with decimal-digit indices below
    `_INDEX_LIMIT` and one number for each value; else None."""
    b = np.frombuffer(body, dtype=np.uint8)
    space = (b == ord(" ")) | (b - np.uint8(ord("\t")) <= 4)  # also \n \v \f \r
    starts = ~space
    starts[1:] &= space[:-1]
    first = np.flatnonzero(starts)
    colon = np.flatnonzero(b == ord(":"))
    n_pairs = colon.size
    if first.size != n_pairs or body.endswith(b":"):
        return None
    # Colon k lies inside token k, after its first byte, and is followed by
    # a byte of the token: one ':' per token, with both sides non-empty.
    if not (np.all(first < colon) and np.all(colon[:-1] < first[1:])):
        return None
    if space[colon + 1].any():
        return None
    # Read the indices digit by digit, blanking each digit read, so that
    # the values are all that np.fromstring sees.
    text = bytearray(body.replace(b":", b" "))
    view = np.frombuffer(text, dtype=np.uint8)
    index = np.zeros(n_pairs, dtype=np.int64)
    live, at = np.arange(n_pairs), first
    while live.size:
        digit = view[at] - np.uint8(ord("0"))
        value = index[live] * 10 + digit
        if digit.max() > 9 or value.max() >= _INDEX_LIMIT:
            return None
        index[live] = value
        view[at] = ord(" ")
        at = at + 1
        more = at < colon[live]
        live, at = live[more], at[more]
    values = _floats(bytes(text), n_pairs)
    return None if values is None else (index, values)


def _data_lines(lines: list[bytes]):
    """(offset, stripped line) of each line that is not blank or a comment."""
    for offset, line in enumerate(lines):
        line = line.strip()
        if line and line[0] != ord("#"):
            yield offset, line


def _parse_block(lines: list[bytes]):
    """(labels, pairs per line, 0-based columns, values) of one block, or
    None if any of its lines breaks a rule of `_line_error`."""
    heads, bodies, counts = [], [], []
    for _, line in _data_lines(lines):
        head, *body = line.split(None, 1)
        heads.append(head)
        counts.append(body[0].count(b":") if body else 0)
        bodies += body
    labels = _floats(b" ".join(heads), len(heads))
    if labels is None or not np.all(np.isfinite(labels)):
        return None
    pairs = _pairs(b" ".join(bodies))
    if pairs is None:
        return None
    index, values = pairs
    counts = np.asarray(counts, dtype=np.int64)
    # Indices increase within a line; a line's first pair follows any index.
    increasing = np.diff(index) > 0
    row_starts = np.cumsum(counts)[:-1]
    increasing[row_starts[(row_starts > 0) & (row_starts < index.size)] - 1] = True
    if not (np.all(increasing) and np.all(index >= 1) and np.all(np.isfinite(values))):
        return None
    return labels, counts, index - 1, values


def _show(token: bytes) -> str:
    return repr(token.decode("utf-8", "replace"))


def _line_error(line: bytes) -> str | None:
    """What is wrong with one stripped, non-comment line, or None."""
    head, *body = line.split(None, 1)
    label = _floats(head, 1)
    if label is None:
        return f"bad label {_show(head)}"
    if not np.isfinite(label[0]):
        return f"non-finite label {_show(head)}"
    previous = 0
    for token in body[0].split() if body else ():
        index_s, colon, value_s = token.partition(b":")
        if not colon:
            return f"missing ':' in {_show(token)}"
        value = _floats(value_s, 1)
        if not index_s.isdigit() or value is None:
            return f"bad pair {_show(token)}"
        index = int(index_s)
        if index < 1:
            return f"index {index} < 1"
        if index >= _INDEX_LIMIT:
            return f"index {index} too large"
        if index <= previous:
            return f"index {index} not increasing (previous {previous})"
        if not np.isfinite(value[0]):
            return f"non-finite value {index}:{float(value[0])!r}"
        previous = index
    return None


def _raise_first_bad_line(lines: list[bytes], line_no: int):
    """Raise LibsvmParseError for the first bad line of a rejected block,
    whose first line is line `line_no` + 1 of the input."""
    for offset, line in _data_lines(lines):
        message = _line_error(line)
        if message is not None:
            raise LibsvmParseError(line_no + 1 + offset, message)
    raise RuntimeError(f"block at line {line_no + 1} was rejected but has no bad line")


def parse_libsvm(source) -> tuple[SparseDesign, np.ndarray]:
    """Parse libsvm text (`<label> <index>:<value> ...`, 1-based indices).

    `source` may be a path (``.gz`` accepted), an open text stream, or a
    string of lines.  Tokens are separated by ASCII whitespace; blank lines
    and lines starting with ``#`` are skipped.  Labels and values are
    decimal or scientific floats without digit-group underscores, and must
    be finite.  Indices are decimal digits, at least 1 and strictly
    increasing within a line; explicit zero values are stored.  The feature
    dimension is the largest index.  A malformed line raises
    LibsvmParseError with its line number.

    The input is read in blocks of about 1 MiB of lines.  Each block is
    checked and converted with a few numpy passes; only a block that fails
    is walked line by line, to name its first bad line.
    """
    stream, close = _open_bytes(source)
    labels, counts, columns, values = [], [], [], []
    line_no = 0
    try:
        while lines := stream.readlines(_BLOCK_BYTES):
            if isinstance(lines[0], str):
                lines = [line.encode("utf-8") for line in lines]
            block = _parse_block(lines)
            if block is None:
                _raise_first_bad_line(lines, line_no)
            for kept, part in zip((labels, counts, columns, values), block):
                kept.append(part)
            line_no += len(lines)
    finally:
        if close:
            stream.close()

    labels = np.concatenate(labels) if labels else np.empty(0)
    if labels.size == 0:
        raise LibsvmParseError(0, "empty input")
    indptr = np.zeros(labels.size + 1, dtype=np.int64)
    np.cumsum(np.concatenate(counts), out=indptr[1:])
    columns = np.concatenate(columns)
    n_features = int(columns.max()) + 1 if columns.size else 0
    csr = sp.csr_matrix(
        (np.concatenate(values), columns, indptr), shape=(labels.size, n_features)
    )
    return SparseDesign.from_matrix(csr), labels


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
