"""Building the two-edge-family index and searching it.

Stage 1 prunes an exact K-NN graph to Euclidean edges; stage 2 injects
inner-product dominator edges selected from each node's exact top-ls
inner-product candidates. At query
time the alpha knob sets how many of each family load per node under the
out-degree budget R.
"""

import numpy as np

import magsearch as ms
from magsearch.bench import SyntheticSpec, bench_one, generate_synthetic

data = generate_synthetic(SyntheticSpec("gaussian", n=4000, dim=16, seed=0))
queries = generate_synthetic(SyntheticSpec("gaussian", n=100, dim=16, seed=1))
gt = ms.compute_ground_truth(data, queries, 10, ms.MetricKind.INNER_PRODUCT)

index = ms.build_mag(data, K=32, K1=16, K2=16, ls=64, seed=0)
print(f"index: n={index.n}  K1={index.K1}  K2={index.K2}  "
      f"self-dominators={index.self_dominator.mean():.1%}")
print("mean out-degree: euclid",
      np.mean([len(e) for e in index.euclid]).round(1), " ip",
      np.mean([len(e) for e in index.ip]).round(1))

print("\nrecall@10 / distance computations across the alpha knob (ls=48):")
for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
    graph = ms.materialize(index, R=24, alpha=alpha)
    rec = bench_one(graph, data, queries, gt, ls=48, k=10, m=0, seed=7, reps=1)
    print(f"  alpha={alpha:4.2f}: recall {rec.recall:.3f}  comps {rec.dist_comps:7.1f}"
          f"  hops {rec.hops:6.1f}")

print("\npool size trades recall for work (alpha=0.5):")
graph = ms.materialize(index, R=24, alpha=0.5)
for ls in (16, 32, 64, 128):
    rec = bench_one(graph, data, queries, gt, ls=ls, k=10, m=0, seed=7, reps=1)
    print(f"  ls={ls:4d}: recall {rec.recall:.3f}  comps {rec.dist_comps:7.1f}")

# a single query end to end
q = queries.vector(0)
res = ms.greedy_search(graph, data, q, ms.SearchParams(ls=64, k=10, seed=3),
                       ms.MetricKind.INNER_PRODUCT)
oracle = ms.brute_force_topk(data, q, 10, ms.MetricKind.INNER_PRODUCT)
print(f"\nquery 0: found {len(np.intersect1d(res.ids, oracle))}/10 of the "
      f"oracle answer in {res.stats.dist_comps} scorings, {res.stats.hops} hops")
