"""Why the graph mixes edge families: escaping the high-norm bait.

This dataset is built to trap pure inner-product navigation: the true
answers sit in a small tight blob along the query direction, while a far
cluster of huge-norm points wins every intermediate inner-product
comparison. Edges selected under inner product all point at the bait, so
a search over IP edges alone (alpha=1) climbs into it and stalls; a
Euclidean-first start (m > 0) cannot help there, because the search
already expands everything it can reach: 18 of the 20 queries find none
of their answers. Mixing Euclidean edges into the graph (alpha=0.5) is
what rescues the panel: at ls=200, plain inner-product search (m=0)
reaches recall 1.000 with 605 distance computations per query, and the
switch keeps 1.000 for 609 at m=16 and 671 at m=64.
"""

import numpy as np

import magsearch as ms
from magsearch.bench import recall_at_k, run_queries


def make_trap(n_cloud=4770, n_answers=110, n_outliers=120, dim=16, seed=0,
              n_queries=20):
    rng = np.random.default_rng(seed)
    u = np.zeros(dim)
    u[0] = 1.0
    cloud = 0.9 * rng.standard_normal((n_cloud, dim))
    answers = 4.0 * u + 0.3 * rng.standard_normal((n_answers, dim))
    v = rng.standard_normal((n_outliers, dim))
    v[:, 0] = 0.0
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    outliers = 30.0 * (np.cos(np.deg2rad(87)) * u + np.sin(np.deg2rad(87)) * v)
    outliers += 0.3 * rng.standard_normal((n_outliers, dim))
    data = np.vstack([answers, outliers, cloud]).astype(np.float32)
    order = rng.permutation(len(data))
    queries = 4.0 * u + 0.04 * rng.standard_normal((n_queries, dim))
    return (ms.Dataset(np.ascontiguousarray(data[order])),
            ms.Dataset(queries.astype(np.float32)))


data, queries = make_trap()
gt = ms.compute_ground_truth(data, queries, 100, ms.MetricKind.INNER_PRODUCT)
index = ms.build_mag(data, K=32, K1=16, K2=16, ls=64, seed=0)

print("pure-IP edges only (alpha=1), pure-IP navigation (m=0):")
trap_graph = ms.materialize(index, R=16, alpha=1.0)
res = run_queries(trap_graph, data, queries, ls=200, k=100, m=0, seed=11)
recalls = [len(np.intersect1d(r.ids, gt[i])) / 100
           for i, r in enumerate(res)]
print("  per-query recall@100:", " ".join(f"{r:.2f}" for r in recalls))
print(f"  panel mean {np.mean(recalls):.3f}, "
      f"{sum(r == 0 for r in recalls)} queries found nothing")

print("\nmixed edges (alpha=0.5), without (m=0) and with the switch:")
mixed_graph = ms.materialize(index, R=16, alpha=0.5)
for m in (0, 16, 64):
    res = run_queries(mixed_graph, data, queries, ls=200, k=100, m=m, seed=11)
    rec = recall_at_k([r.ids for r in res], gt, 100)
    comps = np.mean([r.stats.dist_comps for r in res])
    print(f"  m={m:3d}: panel recall@100 = {rec:.3f}, "
          f"{comps:.0f} distance computations per query")
