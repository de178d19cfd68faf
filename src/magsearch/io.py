"""fvecs/ivecs binary formats plus the exact brute-force search oracle.

File layout (little-endian): each record is a 4-byte signed int ``d``
followed by ``d`` 4-byte values — float32 for fvecs, int32 for ivecs.
All records in a file must share ``d``. The oracle accumulates in float64
so ground truth out-precisions the float32 engine. Ground truth is an
(n_queries, k) int32 array of ids, best first, kept on disk as ivecs.
"""

from __future__ import annotations

import numpy as np

from .construction import _topk_rows
from .errors import FormatError, UsageError
from .metrics import Dataset, MetricKind
from .stats import _exact_key_blocks


def _read_records(path: str, value_dtype) -> np.ndarray:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) == 0:
        raise FormatError(f"{path}: empty file (need at least one record)")
    if len(raw) < 4:
        raise FormatError(f"{path}: truncated record header")
    dim = int(np.frombuffer(raw, dtype="<i4", count=1)[0])
    if dim <= 0:
        raise FormatError(f"{path}: record dimension {dim} is not positive")
    rec_size = 4 + 4 * dim
    if len(raw) % rec_size != 0:
        raise FormatError(f"{path}: file size {len(raw)} is not a multiple of "
                          f"record size {rec_size} (truncated record?)")
    n = len(raw) // rec_size
    rec_dtype = np.dtype([("dim", "<i4"), ("vec", value_dtype, (dim,))])
    records = np.frombuffer(raw, dtype=rec_dtype, count=n)
    if not (records["dim"] == dim).all():
        bad = int(np.nonzero(records["dim"] != dim)[0][0])
        raise FormatError(f"{path}: record {bad} has dimension "
                          f"{int(records['dim'][bad])}, expected {dim}")
    return np.ascontiguousarray(records["vec"])


def read_fvecs(path: str) -> Dataset:
    """Load an fvecs file into a Dataset; a NaN or Inf value is a format error."""
    vecs = _read_records(path, "<f4").astype(np.float32)
    bad = np.flatnonzero(~np.isfinite(vecs).all(axis=1))
    if len(bad):
        raise FormatError(f"{path}: record {bad[0]} contains NaN or Inf values")
    return Dataset(vecs)


def read_ivecs(path: str) -> np.ndarray:
    """Load an ivecs file as an (n, d) int32 array."""
    return _read_records(path, "<i4").astype(np.int32)


def _write_records(rows: np.ndarray, path: str, value_dtype) -> None:
    n, dim = rows.shape
    out = np.empty((n, dim + 1), dtype="<i4")
    out[:, 0] = dim
    out[:, 1:] = rows.astype(value_dtype).view("<i4")
    with open(path, "wb") as f:
        f.write(out.tobytes())


def write_fvecs(dataset: Dataset, path: str) -> None:
    _write_records(dataset.data, path, "<f4")


def write_ivecs(rows: np.ndarray, path: str) -> None:
    rows = np.asarray(rows, dtype=np.int32)
    if rows.ndim != 2:
        raise UsageError(f"ivecs rows must be 2-D, got shape {rows.shape}")
    _write_records(rows, path, "<i4")


def check_ground_truth(rows: np.ndarray, n: int) -> None:
    """Raise unless every row of ground-truth ids is free of repeats and
    indexes data of n vectors; the first row with a repeat is named."""
    ordered = np.sort(rows, axis=1)
    dup = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
    if dup.any():
        raise UsageError(f"ground truth row {dup.argmax()} has duplicate ids")
    if ((rows < 0) | (rows >= n)).any():
        raise UsageError(f"ground truth ids out of range [0, {n})")


def brute_force_topk(dataset: Dataset, q, k: int, metric: MetricKind) -> np.ndarray:
    """Exact top-k ids by exhaustive scan; the verification oracle.

    float64 accumulation; ties broken by lower id. Best-first order.
    """
    qv = np.asarray(q, dtype=np.float64)
    if qv.ndim != 1 or qv.shape[0] != dataset.dim:
        raise UsageError(f"query dimension {qv.shape} does not match dataset dim {dataset.dim}")
    if not np.isfinite(qv).all():
        raise UsageError("query contains NaN or Inf values")
    if not 1 <= k <= dataset.n:
        raise UsageError(f"k={k} out of range [1, {dataset.n}]")
    base = dataset.data.astype(np.float64)
    if metric is MetricKind.INNER_PRODUCT:
        key = -(base @ qv)
    else:
        diff = base - qv
        key = np.einsum("ij,ij->i", diff, diff)
    order = np.argsort(key, kind="stable")  # stable sort = ties by lower id
    return order[:k].astype(np.int32)


def compute_ground_truth(dataset: Dataset, queries: Dataset, k: int,
                         metric: MetricKind) -> np.ndarray:
    """``brute_force_topk`` over a query set, by blocks of queries: the
    (n_queries, k) int32 ids, best first; ties at the k-th place break by
    lower id."""
    if queries.dim != dataset.dim:
        raise UsageError(f"query dim {queries.dim} != dataset dim {dataset.dim}")
    if not 1 <= k <= dataset.n:
        raise UsageError(f"k={k} out of range [1, {dataset.n}]")
    rows = np.empty((queries.n, k), dtype=np.int32)
    for lo, keys in _exact_key_blocks(dataset.data.astype(np.float64),
                                      queries.data.astype(np.float64), metric):
        rows[lo:lo + len(keys)] = _topk_rows(keys, k)[0]
    return rows
