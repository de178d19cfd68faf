"""Two-stage construction, persistence, and runtime edge loading."""

import hashlib
import json
import struct

import numpy as np
import pytest

from magsearch import (Dataset, FormatError, MetricKind, UsageError,
                       build_mag, build_stage1, build_stage2, load_index,
                       materialize, ndg_select, save_index, score_batch,
                       self_dominator_set)
from magsearch import index as index_mod, search as search_mod
from magsearch.bench import SyntheticSpec, generate_synthetic
from magsearch.construction import CsrEdges
from magsearch.index import MagIndex, index_to_bytes, ip_quota
from magsearch.search import CandidatePool, SearchStats


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


def _stage2_width(graph, n, K2, ls):
    """The widest entry row of a stage-2 node: itself, its neighbours, the
    2-hop frontier of K2 accepted edges, the fill."""
    return 1 + graph.adjacency.shape[1] + K2 * K2 + min(ls, n)


def select_row(node, ids, base, K2):
    """The ids ``ndg_select`` keeps of one candidate row."""
    return ids[ndg_select(np.array([node]), ids[None], base, K2)[0]]


def _stage2_reference(graph, ds, accepted, K2, ls, seed, passno):
    """Stage 2 as one scalar float32 search per node, then ndg_select on
    the node's row.

    A node's entries, deduplicated in order, are all scored and offered to
    a pool of ls; the pool then expands to exhaustion.
    """
    base = ds.data.astype(np.float64)
    ip = MetricKind.INNER_PRODUCT
    rows = []
    for node in range(ds.n):
        entries = [node] + graph.neighbors(node).tolist()
        if accepted is not None:
            for direct in accepted[node]:
                entries += accepted[direct].tolist()
        fill = np.random.default_rng([seed, passno, node]).choice(
            ds.n, size=min(ls, ds.n), replace=False)
        entries = np.array(list(dict.fromkeys(entries + fill.tolist())))
        q = ds.vector(node)
        pool = CandidatePool(ls, ip)
        for vid, score in zip(entries.tolist(),
                              score_batch(ip, q, ds.data[entries]).tolist()):
            pool.insert(vid, score)
        seen = np.zeros(ds.n, dtype=bool)
        seen[entries] = True
        search_mod._expand_loop(pool, graph, ds, q, ip, seen, SearchStats())
        ids = pool.ids_best_first()
        rows.append(select_row(node, ids[ids != node], base, K2))
    return rows


class TestStage2:
    @pytest.mark.parametrize("case", ["duplicates", "n_le_ls"])
    @pytest.mark.parametrize("block_rows", [1, 3, None])
    def test_block_sweep_matches_per_node_search(self, case, block_rows,
                                                 monkeypatch):
        rng = np.random.default_rng(11)
        if case == "duplicates":
            pts = rng.standard_normal((100, 6)).astype(np.float32)
            pts[[20, 41, 97]] = pts[5]
            pts[63] = 0.0
            ds, K, K1, K2, ls = Dataset(pts), 12, 6, 5, 12
        else:
            ds = Dataset(rng.standard_normal((40, 6)).astype(np.float32))
            K, K1, K2, ls = 10, 5, 4, 64
        stage1 = build_stage1(ds, K=K, K1=K1, seed=0)
        base = ds.data.astype(np.float64)
        current, accepted = stage1, None
        for passno in (1, 2):
            graph = materialize(current, R=current.K1 + current.K2, alpha=1.0)
            if block_rows is not None:
                width = _stage2_width(graph, ds.n, K2, ls)
                monkeypatch.setattr(search_mod, "_BLOCK_BYTES",
                                    block_rows * (ds.n + 8 * width * (ds.dim + 1)))
                assert search_mod._block_size(ds.n, width, ds.dim) == block_rows
            src, dst = index_mod._stage2_rows((0, ds.n), graph, ds, accepted,
                                              K2, ls, 4, passno)
            expected = _stage2_reference(graph, ds, accepted, K2, ls, 4, passno)
            accepted = CsrEdges.from_pairs(src, dst, ds.n)
            assert [r.tolist() for r in accepted] == [r.tolist() for r in expected]
            current = MagIndex(n=ds.n, dim=ds.dim, K1=K1, K2=K2,
                               euclid=stage1.euclid,
                               ip=index_mod._mirror_ip(accepted, base, K2),
                               self_dominator=stage1.self_dominator)

    def test_blocks_fit_the_byte_budget(self, monkeypatch):
        # a budget that binds: sized from the fill width alone, the blocks
        # would hold nearly three times as many rows as the full width allows
        monkeypatch.setattr(search_mod, "_BLOCK_BYTES", 60_000)
        shapes = []
        run = index_mod._lockstep_pools

        def recording(graph, data, qs, entries, *args):
            shapes.append(entries.shape)
            return run(graph, data, qs, entries, *args)

        monkeypatch.setattr(index_mod, "_lockstep_pools", recording)
        ds = generate_synthetic(SyntheticSpec("gaussian", n=300, dim=8, seed=8))
        build_mag(ds, K=12, K1=6, K2=6, ls=24, seed=2, passes=2)
        assert len(shapes) > 2 and max(B for B, _ in shapes) > 1
        for B, W in shapes:
            if B > 1:
                assert B * (ds.n + 8 * W * (ds.dim + 1)) <= search_mod._BLOCK_BYTES

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_rejected(self, rng, workers):
        ds = Dataset(rng.standard_normal((80, 4)).astype(np.float32))
        stage1 = build_stage1(ds, K=8, K1=4)
        with pytest.raises(UsageError, match="workers"):
            build_stage2(stage1, ds, K2=4, ls=8, workers=workers)

    def test_exhaustive_pool_matches_exact_selection(self, rng):
        # ls = n makes the per-node MIP search exhaustive, so stage 2 (with
        # reverse-edge mirroring off) must equal dominator selection over
        # the brute-force candidate list
        ds = Dataset(rng.standard_normal((300, 8)).astype(np.float32))
        stage1 = build_stage1(ds, K=16, K1=8, seed=0)
        idx = build_stage2(stage1, ds, K2=6, ls=300, seed=0, passes=1,
                           mirror=False)
        base = ds.data.astype(np.float64)
        ids = np.arange(300)
        for i in range(0, 300, 23):
            ips = base @ base[i]
            others = ids[ids != i]
            order = others[np.lexsort((others, -ips[others]))]
            assert idx.ip[i].tolist() == select_row(i, order, base, 6).tolist()

    def test_mirror_flag_recorded_by_stage2(self, rng):
        ds = Dataset(rng.standard_normal((80, 4)).astype(np.float32))
        stage1 = build_stage1(ds, K=8, K1=4)
        on = build_stage2(stage1, ds, K2=4, ls=16, passes=1)
        off = build_stage2(stage1, ds, K2=4, ls=16, passes=1, mirror=False)
        assert on.metadata["mirror"] is True
        assert off.metadata["mirror"] is False

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
        idx = build_mag(ds, K=12, K1=6, K2=4, ls=100, seed=2, passes=1)
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
        a = build_mag(ds, K=12, K1=6, K2=6, ls=24, seed=5, workers=1, passes=2)
        b = build_mag(ds, K=12, K1=6, K2=6, ls=24, seed=5, workers=4, passes=2)
        assert index_to_bytes(a) == index_to_bytes(b)

    def test_one_pool_per_build(self, monkeypatch):
        made = []

        class Counting(index_mod.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                made.append(kwargs["max_workers"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(index_mod, "ProcessPoolExecutor", Counting)
        # n = 700 splits into three node ranges at every worker count here
        ds = generate_synthetic(SyntheticSpec("gaussian", n=700, dim=6, seed=4))
        stage1 = build_stage1(ds, K=12, K1=6)
        blobs = []
        for workers in (1, 2, 3):
            made.clear()
            blobs.append(index_to_bytes(build_stage2(stage1, ds, K2=6, ls=24,
                                                     workers=workers, passes=3)))
            assert made == ([] if workers == 1 else [workers])
        assert blobs[0] == blobs[1] == blobs[2]

    def test_flags_match_census_gate(self, built):
        data, index = built
        census = np.zeros(data.n, dtype=bool)
        census[self_dominator_set(data)] = True
        assert np.array_equal(index.self_dominator, census)
        index.validate(data)


class TestPersistence:
    def test_roundtrip_byte_exact(self, built, tmp_path):
        _, index = built
        path = str(tmp_path / "x.mag")
        save_index(index, path)
        again = load_index(path)
        assert index_to_bytes(again) == index_to_bytes(index)

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
         "1fb2b08396ee49622890a48f7c2cc25bdb6ce12208014c85dd2346280f89cf9b",
         "296023176f15670b09a8b3b0eeb8d75584e039137e6c83746a3fa683caf03ce2"),
        ("heavytail", {"sigma_log": 0.5},
         "ef606bab3441df999057d6e908b3740d118344d80304feef31a927400cea1722",
         "76a3cc07eee4f98d6852e2b8ddc4f8dca220aa74e5a9c1f83118448ab93cc6b5"),
    ])
    def test_sha256(self, kind, kw, index_sha, adjacency_sha):
        data = generate_synthetic(SyntheticSpec(kind, n=300, dim=8, seed=8, **kw))
        index = build_mag(data, K=12, K1=6, K2=6, ls=24, seed=2, passes=2)
        graph = materialize(index, R=10, alpha=0.5)
        assert hashlib.sha256(index_to_bytes(index)).hexdigest() == index_sha
        assert hashlib.sha256(graph.adjacency.tobytes()).hexdigest() == adjacency_sha


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

    def test_out_of_range_detected(self, built):
        import copy
        _, index = built
        broken = copy.deepcopy(index)
        broken.ip.ids[broken.ip.offsets[0]] = 10 ** 6
        with pytest.raises(UsageError, match="range"):
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
            assert g.adjacency.dtype == np.int32 and g.counts.dtype == np.int32
            assert np.array_equal(g.adjacency, padded)
            assert g.counts.tolist() == [len(row) for row in want]

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
