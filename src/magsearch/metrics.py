"""Vector storage and the two similarity kernels everything else builds on.

Vectors live in float32, row-major. Runtime scoring accumulates in float32
(``np.vecdot`` order, which must agree with sequential accumulation within
1e-4 relative) at query time. Construction ranks in float64.

Ordering convention: inner product, larger is better; squared Euclidean
distance, smaller is better. All ties everywhere break toward the lower
vector id, which makes every comparator a strict total order.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import UsageError


class MetricKind(enum.Enum):
    INNER_PRODUCT = "ip"
    EUCLIDEAN = "l2"

    @property
    def larger_is_better(self) -> bool:
        return self is MetricKind.INNER_PRODUCT


@dataclass(frozen=True)
class Dataset:
    """n finite float32 vectors of fixed dimension in one contiguous block."""

    data: np.ndarray  # (n, dim) float32, C-contiguous

    def __post_init__(self):
        d = self.data
        if d.ndim != 2:
            raise UsageError(f"dataset array must be 2-D, got shape {d.shape}")
        if d.shape[0] < 1 or d.shape[1] < 1:
            raise UsageError(f"dataset needs n >= 1 and dim >= 1, got {d.shape}")
        if d.dtype != np.float32 or not d.flags.c_contiguous:
            raise UsageError("dataset array must be C-contiguous float32")
        if not np.isfinite(d).all():
            raise UsageError("dataset contains NaN or Inf values")

    @classmethod
    def from_array(cls, arr) -> "Dataset":
        """Copy/convert any array-like into a valid Dataset."""
        a = np.ascontiguousarray(np.asarray(arr, dtype=np.float32))
        if a.ndim == 1:
            a = a.reshape(1, -1)
        return cls(a)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    def vector(self, i: int) -> np.ndarray:
        return self.data[i]

    @cached_property
    def sq_norms(self) -> np.ndarray:
        """(n,) float32 squared norms, each row's ``np.vecdot`` with itself;
        made on first use and kept."""
        return np.vecdot(self.data, self.data)

    @cached_property
    def max_norm(self) -> float:
        """The largest row norm, from float64 squares, which do not
        overflow where float32 ones may; made on first use and kept."""
        return math.sqrt(float(np.einsum("ij,ij->i", self.data, self.data,
                                         dtype=np.float64).max()))


def score_batch(metric: MetricKind, q: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Score every row of ``block`` against q in float32.

    q is one vector, or one per row: it broadcasts against ``block`` over
    every axis but the last, so a (B, R, d) block takes a (B, 1, d) q.
    ``np.vecdot`` scores each row on its own, so a row's score does not
    depend on how many rows share the call. BLAS ``rows @ q`` does not
    promise that, and the lockstep search relies on it.
    """
    qv = np.asarray(q, dtype=np.float32)
    rows = np.asarray(block, dtype=np.float32)
    if rows.shape[-1] != qv.shape[-1]:
        raise UsageError(f"dimension mismatch: {rows.shape[-1]} vs {qv.shape[-1]}")
    if metric is MetricKind.INNER_PRODUCT:
        return np.vecdot(rows, qv)
    diff = rows - qv
    return np.vecdot(diff, diff)
