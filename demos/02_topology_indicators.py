"""Data-topology indicators: norm spread, clusteredness, dominator density.

Three synthetic families stress the two tuning axes: a plain Gaussian
cloud (tight norms), a heavy-norm-tail family (wide norms, CV >= 0.2),
and separated blobs (strong clustering, low Euclidean DBI). The printed
hints show how the indicators translate into alpha/m tuning.
"""

import magsearch as ms
from magsearch.bench import SyntheticSpec, generate_synthetic

for kind in ("gaussian", "heavytail", "blobs"):
    ds = generate_synthetic(SyntheticSpec(kind, n=4000, dim=16, seed=1))
    report = ms.compute_stats(ds, n_clusters=8, seed=0)
    print(f"--- {kind} ---")
    print(f"  cv = {report.cv:.3f}   dbi_euclidean = {report.dbi_euclidean:.2f}"
          f"   dbi_cosine = {report.dbi_cosine:.2f}"
          f"   self-dominators = {report.self_dominator_fraction:.1%}")
    print(f"  hint: {ms.tuning_hint(report)}")

# the dominator probability and its closed form
print("\nper-pair self-domination probability vs the Gaussian CDF:")
for r in (0.5, 1.0, 2.0, 3.0, 4.0):
    mc = ms.dominator_probability_mc(r, d=32, n_samples=20000, seed=int(r * 10))
    print(f"  r={r:,.1f}: closed form {ms.dominator_probability(r):.5f}"
          f"   monte-carlo {mc:.5f}")

# expected census size by dimension: higher d concentrates norms near
# sqrt(d), pushing most points above any fixed threshold
print("\nexpected count with norm above r (n=10000):")
for d in (8, 16, 64):
    row = [f"r={r}: {ms.expected_self_dominators(10000, d, r):8.1f}"
           for r in (2.0, 4.0, 8.0)]
    print(f"  d={d:3d}  " + "   ".join(row))

print("\nangle to the nearest neighbor shrinks with n (radians):")
for n in (10 ** 3, 10 ** 6, 10 ** 9):
    print(f"  n={n:>12,}: {ms.estimate_nn_angle(n, 64, 0.5):.4f}")
