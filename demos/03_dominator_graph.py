"""The dominator graph on toy 2-D data, and its two structural properties.

A point is a self-dominator when it beats every other point on its own
query: <x,x> > <x,y> for all y. The dominator graph links every node to
its best inner-product candidate plus all self-dominators it scans, which
makes the graph strongly connected and keeps edges beyond the first
pointing only at self-dominators.
"""

import numpy as np

import magsearch as ms
from magsearch.construction import build_exact_ndg, count_strong_components

# the classic 3-point picture: a and b dominate, c is inside a's cell
toy = ms.Dataset.from_array([[2.0, 0.0], [0.0, 2.0], [0.9, 0.9]])
print("self-dominators of {a=(2,0), b=(0,2), c=(0.9,0.9)}:",
      ms.self_dominator_set(toy), "(c is dominated: <c,a>=1.8 > <c,c>=1.62)")

ndg = build_exact_ndg(toy)
print("edges:", {i: row.tolist() for i, row in enumerate(ndg)})
print("strongly connected:", count_strong_components(ndg) == 1)

# the same properties on random data
rng = np.random.default_rng(4)
data = ms.Dataset(rng.standard_normal((300, 6)).astype(np.float32))
census = set(ms.self_dominator_set(data).tolist())
ndg = build_exact_ndg(data)
print(f"\nrandom n=300 d=6: {len(census)} self-dominators "
      f"({len(census) / 3:.0f}% of points)")
print("strongly connected:", count_strong_components(ndg) == 1)

base = data.data.astype(np.float64)
ids = np.arange(data.n)
# every node's candidates are the other points by descending <i, .>, ties
# by id; ndg_select takes all the rows as one block and returns the mask
# of the accepted candidates
rows = np.lexsort((np.tile(ids, (data.n, 1)), -(base @ base.T)))
rows = rows[rows != ids[:, None]].reshape(data.n, data.n - 1)
accepted = ms.ndg_select(ids, rows, base, None)
bad = int((accepted[:, 1:] & ~np.isin(rows[:, 1:], list(census))).sum())
print("accepted-beyond-first outside the census:", bad)

# Euclidean pruning, for contrast: keep a candidate only when it is closer
# to the node than to everything already kept
node = 0
diff = base - base[node]
d2 = np.einsum("ij,ij->i", diff, diff)
others = ids[ids != node]
order = others[np.lexsort((others, d2[others]))]
# mrng_prune takes a block of candidate rows and returns the kept mask;
# here the block is node 0's single row
mask = ms.mrng_prune(np.array([node]), order[None], d2[order][None], base, 8)[0]
kept = order[mask]
print(f"\nnode 0 keeps {len(kept)} of {len(order)} Euclidean candidates:",
      kept.tolist())
