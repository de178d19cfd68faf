"""The measurement harness: recall/QPS sweeps and the scaling study.

Distance computations are the portable cost metric (deterministic across
machines); QPS is wall-clock over the query loop only. The scaling study
reports computations at a matched recall target as the dataset grows.
"""

import magsearch as ms
from magsearch.bench import (SCALE_CSV_HEADER, SyntheticSpec,
                             generate_synthetic, records_to_csv, run_benchmark,
                             run_scaling_study)

data = generate_synthetic(SyntheticSpec("gaussian", n=2000, dim=16, seed=0))
queries = generate_synthetic(SyntheticSpec("gaussian", n=50, dim=16, seed=1))
gt = ms.compute_ground_truth(data, queries, 10, ms.MetricKind.INNER_PRODUCT)
index = ms.build_mag(data, K=24, K1=12, K2=12, ls=48, seed=0)

records = run_benchmark(index, data, queries, gt, ls_list=[16, 32, 64, 128],
                        R=20, alpha=0.5, m=0, k=10, seed=5, reps=3)
print(records_to_csv(records, {"demo": "sweep", "n": 2000, "dim": 16}))

print("scaling: distance computations at recall >= 0.95 (this takes a minute)")
scale = run_scaling_study([500, 2000, 8000], dim=16, K=24, K1=12, K2=12,
                          build_ls=48, R=20, alpha=0.5, k=10, n_queries=50,
                          target=0.95, seed=0, workers=2)
print(records_to_csv(scale, {"demo": "scaling"}, SCALE_CSV_HEADER))
ratio = scale[-1].dist_comps / scale[0].dist_comps
print(f"16x more data costs {ratio:.1f}x the distance computations")
