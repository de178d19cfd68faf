"""Which library calls the traced run wraps, and the per-layer metrics it
derives from their spans.

The layers are the library's modules. Each metric names the end-to-end
metric it should move; the traced run prints that map with its result.
Query-phase times are per pass over the whole query panel.
"""

from __future__ import annotations

import numpy as np

from magsearch.metrics import MetricKind

from tracing import Hook, Tracer, named

# name: (unit, end-to-end metric it should move)
PER_LAYER = {
    "construction.knn_s": ("s", "setup_s"),
    "stats.census_s": ("s", "setup_s"),
    "index.stage1_s": ("s", "setup_s"),
    "index.stage1_self_s": ("s", "setup_s"),
    "index.stage2_s": ("s", "setup_s"),
    "index.stage2_parallel_eff": ("ratio", "setup_s"),
    "index.stage2_search_s": ("s", "setup_s"),
    "index.stage2_search_calls": ("count", "setup_s"),
    "index.stage2_comps_per_call": ("comps/call", "setup_s"),
    "index.stage2_self_s": ("s", "setup_s"),
    "index.materialize_s": ("s", "setup_s"),
    "index.save_s": ("s", "setup_s"),
    "index.load_s": ("s", "setup_s"),
    "metrics.build.score_batch_s": ("s", "setup_s"),
    "metrics.build.rows_per_call": ("rows/call", "setup_s"),
    "metrics.query.score_batch_s": ("s", "qps_r95"),
    "metrics.query.rows_per_call": ("rows/call", "qps_r95"),
    "search.query_s": ("s", "qps_r95, lat_p50_ms"),
    "search.self_s": ("s", "qps_r95, lat_p50_ms"),
    "search.hops_per_query": ("hops/query", "lat_p50_ms"),
    "search.seed_share": ("ratio", "comps_r95"),
    "search.fresh_per_hop": ("rows/hop", "comps_r95"),
    "search.switch_extra_comps": ("comps/query", "comps_r95, qps_r95"),
    "bench.harness_s": ("s", "qps_r95"),
    "trace.query_qps_overhead": ("queries/s", "none: tracing cost"),
    "trace.build_overhead_s": ("s", "none: tracing cost"),
}

_SCORE_IP = "metrics.score_batch.ip"
_SCORE_L2 = "metrics.score_batch.l2"


def _score_name(args: tuple) -> str:
    return _SCORE_IP if args[0] is MetricKind.INNER_PRODUCT else _SCORE_L2


def _rows(args: tuple, out) -> int:
    return len(out)


def _comps(args: tuple, out) -> int:
    return int(out.stats.dist_comps)


def _query_id(args: tuple, kwargs: dict) -> int:
    """run_queries seeds query i with (seed, i); other callers get -1."""
    params = kwargs.get("params", args[3] if len(args) > 3 else None)
    seed = getattr(params, "seed", None)
    return int(seed[1]) if isinstance(seed, tuple) and len(seed) > 1 else -1


_SCORE_HOOK = Hook("magsearch.search", "score_batch", _score_name, count=_rows)

# names that build_stage1 / build_stage2 look up in magsearch.index
BUILD_HOOKS = [
    Hook("magsearch.index", "build_exact_knn", named("construction.build_exact_knn")),
    Hook("magsearch.index", "self_dominator_set", named("stats.self_dominator_set")),
    Hook("magsearch.index", "greedy_search", named("search.greedy_search"), count=_comps),
    Hook("magsearch.index", "materialize", named("index.materialize")),
    _SCORE_HOOK,
]

# names that run_queries looks up in magsearch.bench
QUERY_HOOKS = [
    Hook("magsearch.bench", "greedy_search", named("search.greedy_search"),
         qid=_query_id, count=_comps),
    Hook("magsearch.bench", "anms_search", named("search.anms_search"),
         qid=_query_id, count=_comps),
    _SCORE_HOOK,
]


class Spans:
    """Vectorised queries over a tracer's spans."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = [str(s) for s in a["names"]]
        self.name, self.parent, self.count = a["name"], a["parent"], a["count"]
        self.dur = a["end"] - a["start"]
        # root span of every span, by pointer jumping
        root = np.arange(len(self.name))
        has_parent = self.parent >= 0
        root[has_parent] = self.parent[has_parent]
        while True:
            up = self.parent[root]
            move = up >= 0
            if not move.any():
                break
            root[move] = up[move]
        self.root = root

    def _nid(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -2

    def select(self, *names: str, parent: np.ndarray | None = None,
               root: str | None = None) -> np.ndarray:
        mask = np.isin(self.name, [self._nid(n) for n in names])
        if parent is not None:
            mask &= np.isin(self.parent, parent)
        if root is not None:
            mask &= self.name[self.root] == self._nid(root)
        return np.nonzero(mask)[0]

    def seconds(self, idx: np.ndarray) -> float:
        return float(self.dur[idx].sum())

    def work(self, idx: np.ndarray) -> int:
        return int(self.count[idx].sum())


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def build_metrics(sp: Spans, nproc: int, timed_stage2_s: float) -> dict[str, float]:
    stage1 = sp.select("index.build_stage1", root="setup")
    stage2 = sp.select("index.build_stage2", root="setup")
    knn = sp.seconds(sp.select("construction.build_exact_knn", parent=stage1))
    census = sp.seconds(sp.select("stats.self_dominator_set", parent=stage1))
    searches = sp.select("search.greedy_search", parent=stage2)
    inner_mat = sp.seconds(sp.select("index.materialize", parent=stage2))
    scores = sp.select(_SCORE_IP, _SCORE_L2, root="setup")
    stage1_s, stage2_s = sp.seconds(stage1), sp.seconds(stage2)
    search_s = sp.seconds(searches)
    return {
        "construction.knn_s": knn,
        "stats.census_s": census,
        "index.stage1_s": stage1_s,
        "index.stage1_self_s": stage1_s - knn - census,
        "index.stage2_s": stage2_s,
        "index.stage2_parallel_eff": _ratio(stage2_s, nproc * timed_stage2_s),
        "index.stage2_search_s": search_s,
        "index.stage2_search_calls": float(len(searches)),
        "index.stage2_comps_per_call": _ratio(sp.work(searches), len(searches)),
        "index.stage2_self_s": stage2_s - search_s - inner_mat,
        "index.materialize_s": sp.seconds(sp.select(
            "index.materialize", parent=sp.select("setup"))),
        "index.save_s": sp.seconds(sp.select("index.save_index", root="setup")),
        "index.load_s": sp.seconds(sp.select("index.load_index", root="setup")),
        "metrics.build.score_batch_s": sp.seconds(scores),
        "metrics.build.rows_per_call": _ratio(sp.work(scores), len(scores)),
    }


def query_metrics(sp: Spans, hops: float) -> dict[str, float]:
    passes = sp.select("bench.run_queries", root="queries")
    n_pass = max(1, len(passes))
    searches = sp.select("search.greedy_search", "search.anms_search",
                         parent=passes)
    scores = sp.select(_SCORE_IP, _SCORE_L2, parent=searches)
    query_s = sp.seconds(searches)
    score_s = sp.seconds(scores)
    comps = sp.work(searches)
    # first scoring call of a search scores its entry points; in a switched
    # search the first IP call is the re-score of the pool at the switch
    parents = sp.parent[scores]
    _, first = np.unique(parents, return_index=True)
    seed_rows = sp.work(scores[first])
    is_ip = sp.name[scores] == sp._nid(_SCORE_IP)
    switched = set(parents[first][~is_ip[first]].tolist())
    _, first_ip = np.unique(parents[is_ip], return_index=True)
    rescore = scores[is_ip][first_ip]
    switch_rows = sp.work(rescore[np.isin(sp.parent[rescore], list(switched))])
    return {
        "metrics.query.score_batch_s": score_s / n_pass,
        "metrics.query.rows_per_call": _ratio(sp.work(scores), len(scores)),
        "search.query_s": query_s / n_pass,
        "search.self_s": (query_s - score_s) / n_pass,
        "search.hops_per_query": hops,
        "search.seed_share": _ratio(seed_rows, comps),
        "search.fresh_per_hop": _ratio(comps - seed_rows - switch_rows,
                                       hops * len(searches)),
        "bench.harness_s": (sp.seconds(passes) - query_s) / n_pass,
    }
