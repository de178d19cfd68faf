"""Kernel correctness, the metric-binding identity, and comparator ordering."""

import numpy as np
import pytest

from magsearch import Dataset, MetricKind, UsageError
from magsearch.metrics import score_batch
from magsearch.search import _pool_keys

IP, L2 = MetricKind.INNER_PRODUCT, MetricKind.EUCLIDEAN


def pair_score(metric, x, y):
    """One (x, y) score through the batch kernel, as a Python float."""
    return float(score_batch(metric, np.asarray(x, np.float32),
                             np.asarray([y], np.float32))[0])


class TestKernels:
    def test_inner_product_hand_values(self):
        assert pair_score(IP, [1, 2], [3, 4]) == 11.0
        assert pair_score(IP, [5, -7, 2], [0, 0, 0]) == 0.0
        assert pair_score(IP, [2, 0], [0, 1]) == 0.0

    def test_euclidean_sq_hand_values(self):
        assert pair_score(L2, [0, 0], [3, 4]) == 25.0
        assert pair_score(L2, [1.5, -2.0, 7.0], [1.5, -2.0, 7.0]) == 0.0
        assert pair_score(L2, [1, 0], [0, 1]) == 2.0

    def test_norm_hand_values(self):
        # |x|^2 = <x, x> = d2(x, 0)
        for x, sq in (([3, 4], 25.0), ([0, 0, 0], 0.0), ([1, 1, 1, 1], 4.0)):
            assert pair_score(IP, x, x) == sq
            assert pair_score(L2, x, [0] * len(x)) == sq

    def test_dimension_mismatch(self):
        with pytest.raises(UsageError):
            score_batch(IP, np.ones(2), np.ones((1, 3)))
        with pytest.raises(UsageError):
            score_batch(L2, np.ones(1), np.ones((1, 2)))
        with pytest.raises(UsageError):
            score_batch(IP, np.ones(3), np.ones((4, 2)))

    def test_symmetry_exact(self, rng):
        for _ in range(50):
            d = int(rng.integers(1, 40))
            x = rng.standard_normal(d).astype(np.float32)
            y = rng.standard_normal(d).astype(np.float32)
            assert pair_score(IP, x, y) == pair_score(IP, y, x)
            assert pair_score(L2, x, y) == pair_score(L2, y, x)

    def test_metric_binding_identity(self, rng):
        # d2(x,y) = |x|^2 + |y|^2 - 2<x,y> within 1e-4 relative
        for _ in range(100):
            d = int(rng.integers(2, 64))
            x = rng.standard_normal(d).astype(np.float32)
            y = rng.standard_normal(d).astype(np.float32)
            lhs = pair_score(L2, x, y)
            rhs = pair_score(IP, x, x) + pair_score(IP, y, y) - 2 * pair_score(IP, x, y)
            assert lhs == pytest.approx(rhs, rel=1e-4, abs=1e-4)

    def test_batch_matches_sequential_reference(self, rng):
        # float32 BLAS accumulation must agree with a sequential float64
        # reference within 1e-4 relative
        block = rng.standard_normal((64, 48)).astype(np.float32)
        q = rng.standard_normal(48).astype(np.float32)
        got_ip = score_batch(MetricKind.INNER_PRODUCT, q, block)
        got_d2 = score_batch(MetricKind.EUCLIDEAN, q, block)
        for i in range(64):
            ref_ip = sum(float(a) * float(b) for a, b in zip(q, block[i]))
            ref_d2 = sum((float(a) - float(b)) ** 2 for b, a in zip(block[i], q))
            assert got_ip[i] == pytest.approx(ref_ip, rel=1e-4, abs=1e-4)
            assert got_d2[i] == pytest.approx(ref_d2, rel=1e-4, abs=1e-4)

    @pytest.mark.parametrize("metric", list(MetricKind))
    @pytest.mark.parametrize("d", [7, 16, 100])
    def test_row_score_independent_of_batch(self, rng, metric, d):
        # the lockstep search scores a row alone, in a 2-D block or in a
        # (B, R, d) batch, and needs the same bits from each
        B, R = 6, 9
        block = rng.standard_normal((B, R, d)).astype(np.float32)
        qs = rng.standard_normal((B, d)).astype(np.float32)
        batch = score_batch(metric, qs[:, None], block)
        flat = score_batch(metric, np.repeat(qs, R, axis=0),
                           block.reshape(B * R, d))
        assert batch.shape == (B, R)
        assert batch.dtype == np.float32
        assert np.array_equal(flat, batch.ravel())
        for b in range(B):
            rows = score_batch(metric, qs[b], block[b])
            assert np.array_equal(rows, batch[b])
            for r in range(R):
                alone = score_batch(metric, qs[b], block[b, r:r + 1])
                assert alone[0] == batch[b, r]


def is_better(metric, score_a, id_a, score_b, id_b):
    """a before b under the search's comparator, the uint64 pool keys."""
    a, b = _pool_keys(metric, np.float32([score_a, score_b]), np.array([id_a, id_b]))
    return bool(a < b)


class TestScoreAndComparator:
    def test_score_dispatch(self):
        assert pair_score(IP, [1, 1], [2, 0]) == 2.0
        assert pair_score(L2, [0, 0], [1, 0]) == 1.0

    def test_orientation(self):
        assert is_better(IP, 2.0, 0, 1.0, 1)
        assert not is_better(IP, 1.0, 0, 2.0, 1)
        assert is_better(L2, 1.0, 0, 4.0, 1)
        assert not is_better(L2, 4.0, 0, 1.0, 1)

    def test_tie_break_lower_id(self):
        for metric in MetricKind:
            assert is_better(metric, 3.0, 2, 3.0, 7)
            assert not is_better(metric, 3.0, 7, 3.0, 2)

    def test_strict_total_order(self, rng):
        # antisymmetric + transitive over random scored triples
        for metric in MetricKind:
            scores = rng.standard_normal(30).round(1)  # force some ties
            items = [(float(s), i) for i, s in enumerate(scores)]
            for a in items:
                assert not is_better(metric, a[0], a[1], a[0], a[1])
                for b in items:
                    if a == b:
                        continue
                    ab = is_better(metric, a[0], a[1], b[0], b[1])
                    ba = is_better(metric, b[0], b[1], a[0], a[1])
                    assert ab != ba  # total + antisymmetric
            keys = _pool_keys(metric, np.float32([t[0] for t in items]),
                              np.array([t[1] for t in items]))
            ordered = [items[i] for i in np.argsort(keys)]
            for i in range(len(ordered) - 1):
                assert is_better(metric, ordered[i][0], ordered[i][1],
                                 ordered[i + 1][0], ordered[i + 1][1])


class TestDataset:
    def test_from_array_and_accessors(self):
        ds = Dataset.from_array([[1.0, 2.0], [3.0, 4.0]])
        assert (ds.n, ds.dim) == (2, 2)
        assert ds.vector(1).tolist() == [3.0, 4.0]

    def test_rejects_nan(self):
        with pytest.raises(UsageError):
            Dataset.from_array([[np.nan, 1.0]])

    def test_rejects_empty(self):
        with pytest.raises(UsageError):
            Dataset(np.empty((0, 4), dtype=np.float32))

    def test_rejects_wrong_dtype(self):
        with pytest.raises(UsageError):
            Dataset(np.ones((2, 2), dtype=np.float64))
