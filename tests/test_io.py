"""File-format round-trips, format errors, and the brute-force oracle."""

import struct

import numpy as np
import pytest

from magsearch import (Dataset, FormatError, MetricKind, UsageError,
                       brute_force_topk, compute_ground_truth, read_fvecs,
                       read_ivecs, write_fvecs)
from magsearch.io import check_ground_truth, write_ivecs


class TestFvecs:
    def test_single_record(self, tmp_path):
        path = tmp_path / "one.fvecs"
        path.write_bytes(struct.pack("<i2f", 2, 1.0, 2.0))
        ds = read_fvecs(str(path))
        assert (ds.n, ds.dim) == (1, 2)
        assert ds.data.tolist() == [[1.0, 2.0]]

    def test_roundtrip_bit_exact(self, tmp_path, rng):
        ds = Dataset(rng.standard_normal((100, 8)).astype(np.float32))
        path = str(tmp_path / "d.fvecs")
        write_fvecs(ds, path)
        back = read_fvecs(path)
        assert back.data.tobytes() == ds.data.tobytes()

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.fvecs"
        path.write_bytes(b"")
        with pytest.raises(FormatError):
            read_fvecs(str(path))

    def test_truncated_record_rejected(self, tmp_path):
        path = tmp_path / "trunc.fvecs"
        path.write_bytes(struct.pack("<i2f", 3, 1.0, 2.0))  # claims dim=3
        with pytest.raises(FormatError):
            read_fvecs(str(path))

    def test_inconsistent_dim_rejected(self, tmp_path):
        path = tmp_path / "mixed.fvecs"
        # two dim-2 records worth of bytes, second claims dim=1
        path.write_bytes(struct.pack("<i2f", 2, 1.0, 2.0) +
                         struct.pack("<ifif", 1, 3.0, 1, 4.0))
        with pytest.raises(FormatError):
            read_fvecs(str(path))

    def test_nonpositive_dim_rejected(self, tmp_path):
        path = tmp_path / "bad.fvecs"
        path.write_bytes(struct.pack("<i2f", -2, 1.0, 2.0))
        with pytest.raises(FormatError):
            read_fvecs(str(path))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_record_rejected(self, tmp_path, bad):
        path = tmp_path / "bad.fvecs"
        path.write_bytes(struct.pack("<i2f", 2, 1.0, 2.0) * 2
                         + struct.pack("<i2f", 2, 3.0, bad)
                         + struct.pack("<i2f", 2, bad, 0.0))
        with pytest.raises(FormatError,
                           match=r"bad\.fvecs: record 2 contains NaN or Inf"):
            read_fvecs(str(path))

    def test_unwritable_path(self, tmp_path, rng):
        ds = Dataset(rng.standard_normal((2, 2)).astype(np.float32))
        with pytest.raises(OSError):
            write_fvecs(ds, str(tmp_path / "no_dir" / "x.fvecs"))


class TestIvecs:
    def test_roundtrip(self, tmp_path, rng):
        rows = rng.integers(0, 1000, size=(50, 10)).astype(np.int32)
        path = str(tmp_path / "r.ivecs")
        write_ivecs(rows, path)
        assert np.array_equal(read_ivecs(path), rows)

    def test_rows_must_be_2d(self, tmp_path):
        path = tmp_path / "r.ivecs"
        with pytest.raises(UsageError, match="must be 2-D"):
            write_ivecs(np.arange(5), str(path))
        assert not path.exists()


@pytest.mark.parametrize("fvecs", [True, False], ids=["fvecs", "ivecs"])
def test_corrupt_files_raise_format_error_or_load(tmp_path, fvecs):
    # every truncation and every single-bit flip of a 5 x 3 file of 16-byte
    # records: the reader raises FormatError or loads, never another
    # exception; a truncation loads only at a record boundary, as the
    # records before it
    rows = np.arange(1, 16, dtype=np.int32).reshape(5, 3)
    path = tmp_path / "c.vecs"
    if fvecs:
        write_fvecs(Dataset(rows.astype(np.float32)), str(path))
    else:
        write_ivecs(rows, str(path))
    blob = path.read_bytes()
    variants = [blob[:cut] for cut in range(len(blob))]
    for bit in range(8 * len(blob)):
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        variants.append(bytes(flipped))
    loaded = []
    for i, variant in enumerate(variants):
        path.write_bytes(variant)
        try:
            got = read_fvecs(str(path)).data if fvecs else read_ivecs(str(path))
        except FormatError:
            continue
        loaded.append(i)
        if i < len(blob):
            assert np.array_equal(got, rows[:i // 16])
    assert loaded[:4] == [16, 32, 48, 64]
    assert 4 < len(loaded) < len(variants) - len(blob) + 4


class TestBruteForceOracle:
    def test_ip_hand_example(self):
        ds = Dataset.from_array([[2, 0], [0, 1]])
        assert brute_force_topk(ds, [1, 1], 1, MetricKind.INNER_PRODUCT).tolist() == [0]

    def test_euclid_hand_example(self):
        ds = Dataset.from_array([[2, 0], [0, 1]])
        # d2((0,2),(0,1)) = 1 < d2((0,2),(2,0)) = 8
        assert brute_force_topk(ds, [0, 2], 1, MetricKind.EUCLIDEAN).tolist() == [1]

    def test_k_equals_n_is_full_ranking(self, small_gaussian, rng):
        q = rng.standard_normal(8).astype(np.float32)
        out = brute_force_topk(small_gaussian, q, small_gaussian.n,
                               MetricKind.INNER_PRODUCT)
        assert sorted(out.tolist()) == list(range(small_gaussian.n))
        ips = small_gaussian.data.astype(np.float64) @ q.astype(np.float64)
        assert all(ips[out[i]] >= ips[out[i + 1]] for i in range(len(out) - 1))

    def test_prefix_consistency(self, small_gaussian, rng):
        q = rng.standard_normal(8).astype(np.float32)
        for metric in MetricKind:
            full = brute_force_topk(small_gaussian, q, 50, metric)
            for k in (1, 5, 20, 50):
                assert np.array_equal(
                    brute_force_topk(small_gaussian, q, k, metric), full[:k])

    def test_tie_break_by_id(self):
        ds = Dataset.from_array([[1, 0], [1, 0], [0, 1]])
        out = brute_force_topk(ds, [1, 0], 2, MetricKind.INNER_PRODUCT)
        assert out.tolist() == [0, 1]

    def test_k_out_of_range(self, small_gaussian):
        with pytest.raises(UsageError):
            brute_force_topk(small_gaussian, np.zeros(8, np.float32), 201,
                             MetricKind.INNER_PRODUCT)
        with pytest.raises(UsageError):
            brute_force_topk(small_gaussian, np.zeros(8, np.float32), 0,
                             MetricKind.INNER_PRODUCT)

    @pytest.mark.parametrize("shape", [(7,), (1, 8)])
    def test_query_shape_mismatch(self, small_gaussian, shape):
        with pytest.raises(UsageError, match="does not match dataset dim 8"):
            brute_force_topk(small_gaussian, np.zeros(shape, np.float32), 5,
                             MetricKind.INNER_PRODUCT)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, small_gaussian, bad):
        # a NaN query used to rank every point equal and return ids 0..k-1
        q = np.zeros(8, np.float32)
        q[3] = bad
        for metric in MetricKind:
            with pytest.raises(UsageError, match="NaN or Inf"):
                brute_force_topk(small_gaussian, q, 5, metric)


class TestComputeGroundTruth:
    def test_rows_match_single_queries(self, rng):
        data = Dataset(rng.standard_normal((500, 16)).astype(np.float32))
        queries = Dataset(rng.standard_normal((20, 16)).astype(np.float32))
        gt = compute_ground_truth(data, queries, 7, MetricKind.EUCLIDEAN)
        for i in range(queries.n):
            assert np.array_equal(
                gt[i],
                brute_force_topk(data, queries.vector(i), 7, MetricKind.EUCLIDEAN))
        check_ground_truth(gt, data.n)

    @pytest.mark.parametrize("metric", list(MetricKind))
    def test_query_blocks_match_single_queries(self, rng, metric):
        # at n = 1,200 a block holds 109 queries under inner product and 6
        # under l2, so 219 queries end in blocks of 110 rows (the lone last
        # query joins the block before it) and of 3 rows
        data = Dataset(rng.standard_normal((1200, 16)).astype(np.float32))
        queries = Dataset(rng.standard_normal((219, 16)).astype(np.float32))
        gt = compute_ground_truth(data, queries, 10, metric)
        for i in range(queries.n):
            assert gt[i].tolist() == brute_force_topk(
                data, queries.vector(i), 10, metric).tolist(), i
        for k in (0, data.n + 1):
            with pytest.raises(UsageError, match="out of range"):
                compute_ground_truth(data, queries, k, metric)

    def test_duplicate_ids_name_the_first_bad_row(self):
        rows = np.array([[0, 1, 2], [3, 4, 5], [6, 7, 6], [9, 9, 8]], dtype=np.int32)
        with pytest.raises(UsageError, match="row 2 has duplicate ids"):
            check_ground_truth(rows, 10)
        check_ground_truth(rows[:2], 10)

    @pytest.mark.parametrize("bad", [-1, 10])
    def test_ids_outside_the_data_rejected(self, bad):
        rows = np.array([[0, 1, 2], [3, 4, bad]], dtype=np.int32)
        with pytest.raises(UsageError, match=r"out of range \[0, 10\)"):
            check_ground_truth(rows, 10)

    def test_duplicate_queries_identical_rows(self, small_gaussian):
        q = small_gaussian.data[:1]
        queries = Dataset(np.vstack([q, q]).astype(np.float32))
        gt = compute_ground_truth(small_gaussian, queries, 5,
                                  MetricKind.INNER_PRODUCT)
        assert np.array_equal(gt[0], gt[1])

    def test_dim_mismatch(self, small_gaussian, rng):
        queries = Dataset(rng.standard_normal((2, 9)).astype(np.float32))
        with pytest.raises(UsageError):
            compute_ground_truth(small_gaussian, queries, 3,
                                 MetricKind.INNER_PRODUCT)

    def test_scaling_turns_mips_into_nns(self, rng):
        # with mu at 1e6 * max|x|/|q|, the Euclidean NN of mu*q is the MIPS
        # answer for q on tie-free random data
        data = Dataset(rng.standard_normal((400, 12)).astype(np.float32))
        max_norm = float(np.linalg.norm(data.data, axis=1).max())
        for _ in range(25):
            q = rng.standard_normal(12)
            mu = 1e6 * max_norm / np.linalg.norm(q)
            a = brute_force_topk(data, q, 1, MetricKind.INNER_PRODUCT)
            b = brute_force_topk(data, mu * q, 1, MetricKind.EUCLIDEAN)
            assert a.tolist() == b.tolist()
