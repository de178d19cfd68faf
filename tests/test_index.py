"""Two-stage construction, persistence, and runtime edge loading."""

import functools
import hashlib
import json
import multiprocessing
import os
import struct

import numpy as np
import pytest

from magsearch import (Dataset, FormatError, UsageError, build_mag,
                       build_stage1, build_stage2, load_index, materialize,
                       ndg_select, save_index, self_dominator_set)
from magsearch import index as index_mod
from magsearch import io as io_mod
from magsearch import stats as stats_mod
from magsearch.bench import SyntheticSpec, generate_synthetic
from magsearch.construction import CsrEdges
from magsearch.index import MagIndex, index_from_bytes, index_to_bytes, ip_quota


@pytest.fixture
def pools_made(monkeypatch):
    """The max_workers of every process pool that stage 2 opens."""
    made = []

    class Counting(index_mod.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(index_mod, "ProcessPoolExecutor", Counting)
    return made


@pytest.fixture(scope="module")
def built():
    rng = np.random.default_rng(7)
    data = Dataset(rng.standard_normal((400, 8)).astype(np.float32))
    index = build_mag(data, K=16, K1=8, K2=8, ls=32, seed=3)
    return data, index


class TestStage1:
    def test_collinear_hand_example(self):
        ds = Dataset.from_array([[0.0], [1.0], [3.0]])
        idx = build_stage1(ds, K=2, K1=2)
        # node 0: point 3 pruned, closer to kept point 1 than to the node
        assert idx.euclid[0].tolist() == [1]
        # node 1: both sides survive (0 and 3 are farther from each other
        # than from the node)
        assert idx.euclid[1].tolist() == [0, 2]
        assert idx.euclid[2].tolist() == [1]
        assert all(len(row) == 0 for row in idx.ip)

    def test_k1_one_keeps_nearest(self, rng):
        ds = Dataset(rng.standard_normal((120, 4)).astype(np.float32))
        idx = build_stage1(ds, K=8, K1=1)
        base = ds.data.astype(np.float64)
        for i in range(120):
            diff = base - base[i]
            d2 = np.einsum("ij,ij->i", diff, diff)
            d2[i] = np.inf
            assert idx.euclid[i].tolist() == [int(np.argmin(d2))]

    def test_out_degree_capped(self, rng):
        ds = Dataset(rng.standard_normal((300, 8)).astype(np.float32))
        idx = build_stage1(ds, K=24, K1=6)
        assert max(len(r) for r in idx.euclid) <= 6

    def test_parameter_validation(self, small_gaussian):
        with pytest.raises(UsageError):
            build_stage1(small_gaussian, K=4, K1=8)
        with pytest.raises(UsageError):
            build_stage1(small_gaussian, K=small_gaussian.n, K1=2)


def select_row(node, ids, base, K2):
    """The ids ``ndg_select`` keeps of one candidate row."""
    return ids[ndg_select(np.array([node]), ids[None], base, K2)[0]]


def pool_reference(node, base, ls):
    """The node's exact top min(ls, n) ids by (-IP, id), itself included,
    from a brute-force ranking."""
    ids = np.arange(len(base))
    ips = base @ base[node]
    return ids[np.lexsort((ids, -ips))][:min(ls, len(base))]


def tied_points(rng, n):
    """Small integer vectors, so that every inner product is exact: many
    duplicates, a zero vector, and ties at every pool boundary."""
    pts = rng.integers(-2, 3, size=(n, 4)).astype(np.float32)
    pts[[20, 41, 97 % n]] = pts[5]
    pts[63 % n] = 0.0
    return pts


class TestStage2:
    @pytest.mark.parametrize("case", ["duplicates", "n_le_ls"])
    @pytest.mark.parametrize("block_rows", [1, 3, None])
    def test_block_sweep_matches_per_node_search(self, case, block_rows,
                                                 monkeypatch):
        # the gram-block sweep of a node range gives every node the edges of
        # dominator selection over its own exact pool, whatever the block size
        rng = np.random.default_rng(11)
        if case == "duplicates":
            ds, K2, ls = Dataset(tied_points(rng, 100)), 5, 12
        else:
            ds = Dataset(rng.standard_normal((40, 6)).astype(np.float32))
            K2, ls = 4, 64
        if block_rows is not None:
            monkeypatch.setattr(stats_mod, "_GRAM_MIN_ROWS", 1)
            monkeypatch.setattr(stats_mod, "_GRAM_BYTES", block_rows * 8 * ds.n)
            assert stats_mod._gram_rows(ds.n) == block_rows
        base = ds.data.astype(np.float64)
        src, dst = index_mod._stage2_rows((0, ds.n), ds, K2, ls)
        got = CsrEdges.from_pairs(src, dst, ds.n)
        for i in range(ds.n):
            want = select_row(i, pool_reference(i, base, ls), base, K2)
            assert got[i].tolist() == want.tolist()

    def test_blocks_fit_the_byte_budget(self, monkeypatch):
        # every gram block of stage 2 holds at most _GRAM_BYTES of float64
        # rows unless that is fewer than _GRAM_MIN_ROWS rows; the blocks
        # tile the nodes in order. Stage 2 makes its blocks in the exact
        # scan of compute_ground_truth, whose query rows name the nodes.
        assert stats_mod._gram_rows(10 ** 6) == stats_mod._GRAM_MIN_ROWS
        monkeypatch.setattr(stats_mod, "_GRAM_BYTES", 150_000)
        owners = []
        blocks = io_mod._exact_key_blocks

        def recording(base, qs, metric):
            node = {row.tobytes(): i for i, row in enumerate(base)}
            for lo, keys in blocks(base, qs, metric):
                owners.append([node[row.tobytes()] for row in qs[lo:lo + len(keys)]])
                yield lo, keys

        monkeypatch.setattr(io_mod, "_exact_key_blocks", recording)
        ds = generate_synthetic(SyntheticSpec("gaussian", n=300, dim=8, seed=8))
        build_mag(ds, K=12, K1=6, K2=6, ls=24, seed=2)
        assert len(owners) > 2 and max(map(len, owners)) > 1
        assert sum(owners, []) == list(range(ds.n))
        assert all(len(rows) * 8 * ds.n <= 150_000 for rows in owners)

    @pytest.mark.parametrize("K2", [0, 4])
    @pytest.mark.parametrize("ls", [0, -3])
    def test_ls_below_one_rejected(self, rng, K2, ls):
        # at K2 = 0 no pool is drawn, but ls still goes into the metadata
        ds = Dataset(rng.standard_normal((80, 4)).astype(np.float32))
        stage1 = build_stage1(ds, K=8, K1=4)
        with pytest.raises(UsageError, match=f"ls must be >= 1, got {ls}"):
            build_stage2(stage1, ds, K2=K2, ls=ls)
        with pytest.raises(UsageError, match="ls must be >= 1"):
            build_mag(ds, K=8, K1=4, K2=K2, ls=ls)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_rejected(self, rng, workers):
        ds = Dataset(rng.standard_normal((80, 4)).astype(np.float32))
        stage1 = build_stage1(ds, K=8, K1=4)
        with pytest.raises(UsageError, match="workers"):
            build_stage2(stage1, ds, K2=4, ls=8, workers=workers)

    def test_exhaustive_pool_matches_exact_selection(self, rng):
        # before mirroring, stage 2's edges equal dominator selection over
        # each node's brute-force (-IP, id) pool, at ls = n and at ls < n;
        # the integer data puts duplicates and exact ties at the pool boundary
        for pts, K2, ls, tied in ((rng.standard_normal((300, 8)), 6, 300, False),
                                  (rng.standard_normal((300, 8)), 6, 20, False),
                                  (tied_points(rng, 120), 5, 120, False),
                                  (tied_points(rng, 120), 5, 9, True)):
            ds = Dataset(np.asarray(pts, dtype=np.float32))
            src, dst = index_mod._stage2_rows((0, ds.n), ds, K2, ls)
            ip = CsrEdges.from_pairs(src, dst, ds.n)
            base = ds.data.astype(np.float64)
            ties = 0
            for i in range(ds.n):
                pool = pool_reference(i, base, ls)
                assert ip[i].tolist() == select_row(i, pool, base, K2).tolist()
                if tied:
                    ranked = np.sort(base @ base[i])[::-1]
                    ties += ranked[ls - 1] == ranked[ls]
            assert ties > 30 or not tied  # the boundary ties are live

    def test_mirror_flag_recorded_by_stage2(self, rng):
        ds = Dataset(rng.standard_normal((80, 4)).astype(np.float32))
        stage1 = build_stage1(ds, K=8, K1=4)
        on = build_stage2(stage1, ds, K2=4, ls=16)
        assert on.metadata["mirror"] is True

    def test_k2_zero_identity(self, rng):
        ds = Dataset(rng.standard_normal((150, 6)).astype(np.float32))
        stage1 = build_stage1(ds, K=12, K1=6, seed=1)
        idx = build_stage2(stage1, ds, K2=0, ls=16, seed=1)
        assert all(np.array_equal(a, b)
                   for a, b in zip(idx.euclid, stage1.euclid))
        assert all(len(r) == 0 for r in idx.ip)
        assert np.array_equal(idx.self_dominator, stage1.self_dominator)

    def test_dominant_point_first(self, rng):
        # whenever the huge-norm point tops a node's IP candidate list, it
        # must lead that node's IP edges (first candidate always accepted)
        pts = rng.standard_normal((100, 6)).astype(np.float32)
        pts[17] = 50.0 * np.abs(pts[17]) / np.linalg.norm(pts[17])
        ds = Dataset(pts)
        idx = build_mag(ds, K=12, K1=6, K2=4, ls=100, seed=2)
        base = ds.data.astype(np.float64)
        gram = base @ base.T
        np.fill_diagonal(gram, -np.inf)
        checked = 0
        for i in range(100):
            if i != 17 and int(np.argmax(gram[i])) == 17:
                assert idx.ip[i][0] == 17
                checked += 1
        assert checked > 25  # the huge point tops many candidate lists

    def test_ls_below_k2_rejected(self, rng):
        ds = Dataset(rng.standard_normal((80, 4)).astype(np.float32))
        stage1 = build_stage1(ds, K=8, K1=4)
        with pytest.raises(UsageError):
            build_stage2(stage1, ds, K2=8, ls=4)

    def test_negative_seed_rejected(self, rng):
        ds = Dataset(rng.standard_normal((80, 4)).astype(np.float32))
        stage1 = build_stage1(ds, K=8, K1=4)
        with pytest.raises(UsageError, match="seed"):
            build_stage2(stage1, ds, K2=4, ls=8, seed=-1)

    def test_workers_do_not_change_output(self, rng):
        ds = Dataset(rng.standard_normal((300, 6)).astype(np.float32))
        a = build_mag(ds, K=12, K1=6, K2=6, ls=24, seed=5, workers=1)
        b = build_mag(ds, K=12, K1=6, K2=6, ls=24, seed=5, workers=4)
        assert index_to_bytes(a) == index_to_bytes(b)

    def test_one_pool_per_build(self, pools_made):
        # n = 700 is four gram blocks: one worker runs them as one node
        # range, and two or three workers as two ranges of two blocks, so
        # the calling process runs the first and a pool of one the second
        ds = generate_synthetic(SyntheticSpec("gaussian", n=700, dim=6, seed=4))
        stage1 = build_stage1(ds, K=12, K1=6)
        blobs = []
        for workers, pools in ((1, []), (2, [1]), (3, [1])):
            pools_made.clear()
            blobs.append(index_to_bytes(build_stage2(stage1, ds, K2=6, ls=24,
                                                     workers=workers)))
            assert pools_made == pools
            ranges = index_mod._stage2_ranges(ds.n, workers)
            assert pools_made == ([len(ranges) - 1] if len(ranges) > 1 else [])
        assert blobs[0] == blobs[1] == blobs[2]

    def test_one_gram_block_opens_no_pool(self, pools_made):
        # n = 300 is one gram block, so four workers run one node range,
        # in the calling process
        ds = generate_synthetic(SyntheticSpec("gaussian", n=300, dim=6, seed=4))
        assert index_mod._stage2_ranges(ds.n, 4) == [(0, ds.n)]
        build_mag(ds, K=12, K1=6, K2=6, ls=24, workers=4)
        assert pools_made == []

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_parent_and_children_cover_every_node_once(self, workers):
        # at n = 1,200 the calling process runs the first node range and
        # every other range runs in a pool child of its own: the children
        # meet at a barrier, which a child holding two ranges never passes
        ranges = index_mod._stage2_ranges(1200, workers)
        with multiprocessing.Manager() as manager:
            barrier = manager.Barrier(max(1, len(ranges) - 1))
            ran = index_mod._run_ranges(functools.partial(
                pid_in_step, parent=os.getpid(), barrier=barrier), ranges)
        assert [bounds for _, bounds in ran] == ranges
        nodes = np.concatenate([np.arange(lo, hi) for _, (lo, hi) in ran])
        assert np.array_equal(nodes, np.arange(1200))
        pids = [pid for pid, _ in ran]
        assert pids[0] == os.getpid() and os.getpid() not in pids[1:]
        assert len(set(pids)) == len(ranges) == workers

    @pytest.mark.parametrize("failing", [0, 2])
    def test_a_failing_range_raises_and_leaves_no_process(self, failing):
        # range 0 fails in the calling process and range 2 in a pool
        # child; either way the exception leaves _run_ranges, and the
        # pool's processes have ended
        ranges = [(0, 10), (10, 20), (20, 30)]
        with pytest.raises(ValueError, match=f"range from node {ranges[failing][0]}"):
            index_mod._run_ranges(functools.partial(fail_at, bad=ranges[failing]),
                                  ranges)
        assert multiprocessing.active_children() == []

    def test_node_ranges_differ_but_bytes_do_not(self):
        # at n = 1,200 the gram blocks are 109 rows, and the lone 1,200th
        # row joins the 11th; 1, 2, 3 and 4 workers split the 11 blocks
        # into 1, 2, 3 and 4 node ranges, none of them a single row
        ds = generate_synthetic(SyntheticSpec("gaussian", n=1200, dim=8, seed=3))
        ranges = [index_mod._stage2_ranges(ds.n, w) for w in (1, 2, 3, 4)]
        assert [len(r) for r in ranges] == [1, 2, 3, 4]
        block = stats_mod._gram_rows(ds.n)
        assert all(lo % block == 0 and hi - lo > 1 for r in ranges for lo, hi in r)
        assert all(r[-1][1] == ds.n for r in ranges)
        stage1 = build_stage1(ds, K=12, K1=6)
        blobs = {index_to_bytes(build_stage2(stage1, ds, K2=6, ls=24, workers=w))
                 for w in (1, 2, 3, 4)}
        assert len(blobs) == 1

    @pytest.mark.parametrize("bad", [{"K2": -1}, {"ls": 0}, {"ls": 4},
                                     {"seed": -1}, {"workers": 0}])
    def test_build_mag_checks_stage2_arguments_first(self, rng, monkeypatch, bad):
        # a bad stage-2 argument fails before stage 1 builds its K-NN graph
        def no_knn(*args, **kwargs):
            raise AssertionError("stage 1 ran")

        monkeypatch.setattr(index_mod, "build_exact_knn", no_knn)
        ds = Dataset(rng.standard_normal((80, 4)).astype(np.float32))
        args = {"K": 8, "K1": 4, "K2": 6, "ls": 8, "seed": 0, "workers": 1}
        with pytest.raises(AssertionError, match="stage 1 ran"):
            build_mag(ds, **args)
        with pytest.raises(UsageError):
            build_mag(ds, **{**args, **bad})

    def test_flags_match_census_gate(self, built):
        data, index = built
        census = np.zeros(data.n, dtype=bool)
        census[self_dominator_set(data)] = True
        assert np.array_equal(index.self_dominator, census)
        index.validate(data)


def pid_in_step(bounds, parent, barrier):
    """The id of the process that ran a node range, and the range; a pool
    child first waits at the barrier for the other children."""
    if os.getpid() != parent:
        barrier.wait(timeout=20)
    return os.getpid(), bounds


def fail_at(bounds, bad):
    if bounds == bad:
        raise ValueError(f"range from node {bounds[0]}")
    return bounds


def bytes_reference(index):
    """The file written record by record, as the format describes it."""
    parts = [b"MAG1", struct.pack("<5I", 1, index.n, index.dim, index.K1, index.K2)]
    for e, p in zip(index.euclid, index.ip):
        parts += [struct.pack("<2I", len(e), len(p)), e.astype("<u4").tobytes(),
                  p.astype("<u4").tobytes()]
    meta = json.dumps(index.metadata, sort_keys=True, separators=(",", ":")).encode()
    parts += [index.self_dominator.astype(np.uint8).tobytes(),
              struct.pack("<I", len(meta)), meta]
    return b"".join(parts)


class TestPersistence:
    def test_roundtrip_byte_exact(self, built, tmp_path):
        _, index = built
        path = str(tmp_path / "x.mag")
        save_index(index, path)
        again = load_index(path)
        assert index_to_bytes(again) == index_to_bytes(index) == bytes_reference(index)
        for kind in ("euclid", "ip"):
            a, b = getattr(again, kind), getattr(index, kind)
            assert np.array_equal(a.offsets, b.offsets) and np.array_equal(a.ids, b.ids)
            assert a.offsets.dtype == b.offsets.dtype and a.ids.dtype == b.ids.dtype

    def test_file_of_a_removed_build_mode_loads(self, built, tmp_path):
        # earlier versions could build stage 1 from an approximate K-NN
        # graph and recorded the mode in the metadata
        data, index = built
        meta = dict(index.metadata, knn_mode="nndescent", nndescent_iters=10)
        old = MagIndex(n=index.n, dim=index.dim, K1=index.K1, K2=index.K2,
                       euclid=index.euclid, ip=index.ip,
                       self_dominator=index.self_dominator, metadata=meta)
        path = str(tmp_path / "old.mag")
        save_index(old, path)
        again = load_index(path)
        again.validate(data)
        assert again.metadata["knn_mode"] == "nndescent"
        assert again.metadata["nndescent_iters"] == 10
        assert index_to_bytes(again) == index_to_bytes(old)

    def test_bad_magic(self, built, tmp_path):
        _, index = built
        blob = bytearray(index_to_bytes(index))
        blob[:4] = b"NOPE"
        path = tmp_path / "bad.mag"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_index(str(path))

    def test_unsupported_version(self, built, tmp_path):
        _, index = built
        blob = bytearray(index_to_bytes(index))
        blob[4] = 9
        path = tmp_path / "v9.mag"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="version"):
            load_index(str(path))

    def test_truncation(self, built, tmp_path):
        _, index = built
        blob = index_to_bytes(index)
        path = tmp_path / "trunc.mag"
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(FormatError):
            load_index(str(path))

    def test_trailing_garbage(self, built, tmp_path):
        _, index = built
        path = tmp_path / "extra.mag"
        path.write_bytes(index_to_bytes(index) + b"xx")
        with pytest.raises(FormatError):
            load_index(str(path))

    def test_flag_byte_other_than_0_or_1(self, built, tmp_path):
        # a byte of 2 would load as True and save back as 1
        _, index = built
        blob = bytearray(index_to_bytes(index))
        meta = json.dumps(index.metadata, sort_keys=True, separators=(",", ":"))
        flags_at = len(blob) - 4 - len(meta.encode("utf-8")) - index.n
        assert blob[flags_at + 5] in (0, 1)
        blob[flags_at + 5] = 2
        path = tmp_path / "flag.mag"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="node 5: self-dominator flag"):
            load_index(str(path))

    @pytest.mark.parametrize("blob", [b"[]", b'"x"', b"3"])
    def test_metadata_must_be_an_object(self, built, tmp_path, blob):
        # JSON that is not an object used to load, and stage 2 then died on
        # dict(metadata) with a bare ValueError or TypeError
        _, index = built
        raw = index_to_bytes(index)
        meta = json.dumps(index.metadata, sort_keys=True, separators=(",", ":"))
        path = tmp_path / "meta.mag"
        path.write_bytes(raw[:len(raw) - 4 - len(meta.encode("utf-8"))]
                         + struct.pack("<I", len(blob)) + blob)
        with pytest.raises(FormatError,
                           match="meta.mag: metadata block is not a JSON object"):
            load_index(str(path))

    def test_invalid_graph_is_a_format_error(self, built, tmp_path):
        # the high bit of node 0's first Euclidean id (header, then two
        # u32 lengths) turns it into an out-of-range id
        _, index = built
        blob = bytearray(index_to_bytes(index))
        blob[4 + 20 + 8 + 3] ^= 0x80
        path = tmp_path / "flip.mag"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError,
                           match="flip.mag: node 0: euclid edge id out of range"):
            load_index(str(path))

    def test_corrupt_files_raise_format_error_or_load_valid(self, tmp_path):
        # every truncation and a seeded sample of single-bit flips of a
        # small index: load_index raises FormatError or returns an index
        # that passes its own validation, never another exception
        data = generate_synthetic(SyntheticSpec("gaussian", n=40, dim=4, seed=2))
        blob = index_to_bytes(build_mag(data, K=8, K1=4, K2=4, ls=12, seed=1))
        rng = np.random.default_rng(21)
        flips = []
        for bit in rng.choice(8 * len(blob), size=600, replace=False).tolist():
            flipped = bytearray(blob)
            flipped[bit // 8] ^= 1 << (bit % 8)
            flips.append(bytes(flipped))
        path = tmp_path / "c.mag"
        loaded = 0
        for variant in [blob[:cut] for cut in range(len(blob))] + flips:
            path.write_bytes(variant)
            try:
                index = load_index(str(path))
            except FormatError:
                continue
            index.validate()
            loaded += 1
        assert 0 < loaded < len(flips)

    def test_build_deterministic(self, rng):
        ds = Dataset(rng.standard_normal((200, 6)).astype(np.float32))
        a = build_mag(ds, K=10, K1=5, K2=5, ls=20, seed=9)
        b = build_mag(ds, K=10, K1=5, K2=5, ls=20, seed=9)
        assert index_to_bytes(a) == index_to_bytes(b)


class TestPinnedBuild:
    """Two fixed small builds whose index bytes and materialized adjacency
    must not move under refactoring. The heavytail build is one where the
    K2 cap drops reverse dominator copies during mirroring."""

    @pytest.mark.parametrize("kind,kw,index_sha,adjacency_sha", [
        ("gaussian", {},
         "f4e4c16ecff37fb19095832dfb93e728a34e42ce69e96d2456b352939f456a1c",
         "b9194fae06b2aeadf61c2fed758d3e7f0fe147fa3bf9f0f4e7618fa2e1476ae4"),
        ("heavytail", {"sigma_log": 0.5},
         "f98aed46478f02d6371f3a0fb2432ac1a78c873fc7199b09eedff17f46e34deb",
         "62136add1e640ac48041ca548eb784a41175627cf9f3ade222719f3cf9b9cbd0"),
    ])
    def test_sha256(self, kind, kw, index_sha, adjacency_sha):
        data = generate_synthetic(SyntheticSpec(kind, n=300, dim=8, seed=8, **kw))
        index = build_mag(data, K=12, K1=6, K2=6, ls=24, seed=2)
        graph = materialize(index, R=10, alpha=0.5)
        assert hashlib.sha256(index_to_bytes(index)).hexdigest() == index_sha
        assert hashlib.sha256(graph.adjacency.tobytes()).hexdigest() == adjacency_sha


@pytest.mark.parametrize("kind,kw", [("gaussian", {}), ("heavytail", {"sigma_log": 0.5})])
def test_pinned_builds_parse_back_in_memory(kind, kw):
    # the pinned builds' bytes parse back to themselves without a file, and
    # a parse error names the source it was given
    data = generate_synthetic(SyntheticSpec(kind, n=300, dim=8, seed=8, **kw))
    blob = index_to_bytes(build_mag(data, K=12, K1=6, K2=6, ls=24, seed=2))
    assert index_to_bytes(index_from_bytes(blob, "pinned")) == blob
    with pytest.raises(FormatError, match="^pinned: truncated index file$"):
        index_from_bytes(blob[:-1], "pinned")
    with pytest.raises(FormatError, match="^pinned: 1 trailing bytes$"):
        index_from_bytes(blob + b"x", "pinned")


class TestValidate:
    def test_self_loop_detected(self, built):
        data, index = built
        import copy
        broken = copy.deepcopy(index)
        broken.euclid.ids[broken.euclid.offsets[3]] = 3
        with pytest.raises(UsageError, match="self-loop"):
            broken.validate()

    @pytest.mark.parametrize("rows,dim", [(150, 8), (300, 8), (400, 4)])
    def test_dataset_shape_mismatch(self, built, rows, dim):
        data, index = built
        other = Dataset(np.resize(data.data, (rows, dim)))
        with pytest.raises(UsageError, match=f"index has 400 vectors of dim 8, "
                           f"but the data has {rows} of dim {dim}"):
            index.validate(other)
        stage1 = build_stage1(data, K=16, K1=8)
        with pytest.raises(UsageError, match="stage-1 index has 400 vectors"):
            build_stage2(stage1, other, K2=8, ls=32)

    @pytest.mark.parametrize("kind,kw", [("gaussian", {}),
                                         ("heavytail", {"sigma_log": 0.5})])
    @pytest.mark.parametrize("family", ["euclid", "ip"])
    def test_rows_out_of_order_detected(self, kind, kw, family):
        # materialize loads the first edges of each row, so a permuted row
        # loads other edges: the pinned builds validate against their data,
        # and a swap of two edges of node 0 does not
        data = generate_synthetic(SyntheticSpec(kind, n=300, dim=8, seed=8, **kw))
        index = build_mag(data, K=12, K1=6, K2=6, ls=24, seed=2)
        index.validate(data)
        edges = getattr(index, family)
        first = edges.offsets[0]
        assert edges.lengths()[0] >= 3
        edges.ids[[first, first + 2]] = edges.ids[[first + 2, first]]
        with pytest.raises(UsageError, match=f"node 0: {family} edges not best first"):
            index.validate(data)

    def test_out_of_range_detected(self, built):
        import copy
        _, index = built
        broken = copy.deepcopy(index)
        broken.ip.ids[broken.ip.offsets[0]] = 10 ** 6
        with pytest.raises(UsageError, match="range"):
            broken.validate()

    @pytest.mark.parametrize("family", ["euclid", "ip"])
    def test_duplicate_detected(self, built, family):
        import copy
        _, index = built
        edges = getattr(index, family)
        low, high = np.flatnonzero(edges.lengths() >= 2)[[3, 9]]
        broken = copy.deepcopy(index)
        ids, offsets = getattr(broken, family).ids, edges.offsets
        # a repeated id in one row names that node
        ids[offsets[high] + 1] = ids[offsets[high]]
        with pytest.raises(UsageError, match=f"^node {high}: duplicate {family} edges$"):
            broken.validate()
        # with two broken rows, the lower node is named
        ids[offsets[low + 1] - 1] = ids[offsets[low]]
        with pytest.raises(UsageError, match=f"^node {low}: duplicate {family} edges$"):
            broken.validate()
        # and through the file bytes, as a FormatError naming the source
        with pytest.raises(FormatError,
                           match=f"^dup.mag: node {low}: duplicate {family} edges$"):
            index_from_bytes(index_to_bytes(broken), "dup.mag")

    @pytest.mark.parametrize("family", ["euclid", "ip"])
    def test_out_of_range_id_is_not_a_duplicate(self, built, family):
        # node i's id n + t has the code (i + 1) * n + t of node i + 1's
        # edge to t, and node i + 1's id t - n the code of node i's edge to
        # t; both are out of range, not duplicates
        import copy
        _, index = built
        edges = getattr(index, family)
        node = int(np.flatnonzero((edges.lengths()[:-1] > 0)
                                  & (edges.lengths()[1:] > 0))[0])
        for at, bad_id, named in ((edges.offsets[node], edges[node + 1][0] + index.n, node),
                                  (edges.offsets[node + 1], edges[node][0] - index.n,
                                   node + 1)):
            broken = copy.deepcopy(index)
            getattr(broken, family).ids[at] = bad_id
            with pytest.raises(UsageError,
                               match=f"^node {named}: {family} edge id out of range$"):
                broken.validate()


def materialize_reference(index, R, alpha):
    """The per-node rule on Python lists: the row's first ceil(alpha R) IP
    edges, then its Euclidean edges not taken yet, in order, up to R."""
    quota = ip_quota(alpha, R)
    rows = []
    for i in range(index.n):
        taken = index.ip[i][:quota].tolist()
        for e in index.euclid[i].tolist():
            if len(taken) == R:
                break
            if e not in taken:
                taken.append(e)
        rows.append(taken)
    return rows


class TestMaterialize:
    @pytest.fixture(scope="class")
    def hand(self):
        """Rows that share ids across the two lists, rows with one list
        empty, and an empty row."""
        euclid = [[1, 2, 3, 4, 5, 6], [0, 2], [], [0, 1, 2, 4, 5, 6], [3],
                  [6, 0, 1], [5, 4, 3, 2, 1, 0]]
        ip = [[3, 1, 6], [], [], [6, 0, 1, 2], [0, 1, 2, 5, 6],
              [6, 1, 0, 2, 3, 4], [0, 1]]
        rows = [np.asarray(r, dtype=np.int32) for r in euclid + ip]
        return MagIndex(n=7, dim=2, K1=6, K2=6, euclid=CsrEdges.from_rows(rows[:7]),
                        ip=CsrEdges.from_rows(rows[7:]),
                        self_dominator=np.zeros(7, dtype=bool))

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize("R", [1, 4, 9, 13])
    def test_matches_per_node_rule(self, built, hand, alpha, R):
        # R = 1 and 4 lie below K2 of both indexes (8 and 6); 13 lies above
        # hand's K1 + K2 = 12, and 13 + 4 above built's 16
        _, index = built
        for idx, r in ((hand, R), (index, R), (index, R + 4)):
            shared = [set(idx.ip[i].tolist()) & set(idx.euclid[i].tolist())
                      for i in range(idx.n)]
            assert any(shared)
            want = materialize_reference(idx, r, alpha)
            padded = np.full((idx.n, r), -1, dtype=np.int32)
            for i, row in enumerate(want):
                padded[i, :len(row)] = row
            g = materialize(idx, R=r, alpha=alpha)
            assert g.adjacency.dtype == np.int32
            assert np.array_equal(g.adjacency, padded)
            # the row lengths, read off the -1 cells
            assert (g.adjacency >= 0).sum(axis=1).tolist() == [len(row) for row in want]

    def test_quota_arithmetic(self):
        assert ip_quota(0.3, 10) == 3
        assert ip_quota(0.25, 10) == 3   # true ceil of 2.5
        assert ip_quota(0.0, 7) == 0
        assert ip_quota(1.0, 7) == 7

    def test_quota_split(self, built):
        data, index = built
        g = materialize(index, R=10, alpha=0.3)
        for i in range(data.n):
            row = g.neighbors(i).tolist()
            ip_part = index.ip[i][:3].tolist()
            assert row[:len(ip_part)] == ip_part
            assert len(row) <= 10

    def test_alpha_zero_is_pure_euclid(self, built):
        data, index = built
        g = materialize(index, R=8, alpha=0.0)
        for i in range(data.n):
            assert g.neighbors(i).tolist() == index.euclid[i][:8].tolist()

    def test_alpha_one_is_pure_ip_when_r_le_k2(self, built):
        data, index = built
        g = materialize(index, R=index.K2, alpha=1.0)
        for i in range(data.n):
            assert g.neighbors(i).tolist() == index.ip[i][:index.K2].tolist()

    def test_monotone_in_r(self, built):
        data, index = built
        g_small = materialize(index, R=6, alpha=0.5)
        g_big = materialize(index, R=12, alpha=0.5)
        for i in range(data.n):
            assert set(g_small.neighbors(i).tolist()) <= set(
                g_big.neighbors(i).tolist())

    def test_cross_kind_dedup_keeps_ip_copy(self, built):
        data, index = built
        g = materialize(index, R=16, alpha=0.5)
        for i in range(data.n):
            row = g.neighbors(i).tolist()
            assert len(row) == len(set(row))

    def test_r_validation(self, built):
        _, index = built
        with pytest.raises(UsageError):
            materialize(index, R=0, alpha=0.5)
        with pytest.raises(UsageError):
            materialize(index, R=4, alpha=1.5)
