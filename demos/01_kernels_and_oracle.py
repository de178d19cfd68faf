"""Similarity kernels, the file formats, and the brute-force oracle.

Everything downstream rests on two scores: the inner product (larger is
better) and squared Euclidean distance (smaller is better), tied together
by d2(x,y) = |x|^2 + |y|^2 - 2<x,y>. The oracle ranks exhaustively in
float64 and is the reference every search result is checked against.
"""

import tempfile

import numpy as np

import magsearch as ms

x, y = np.array([3.0, 4.0]), np.array([1.0, 2.0])
print("<x, y>                 =", np.dot(x, y))
print("|x - y|^2              =", np.dot(x - y, x - y))
print("|x|^2 + |y|^2 - 2<x,y> =", np.dot(x, x) + np.dot(y, y) - 2 * np.dot(x, y))

rng = np.random.default_rng(0)
data = ms.Dataset(rng.standard_normal((1000, 16)).astype(np.float32))
q = rng.standard_normal(16).astype(np.float32)

top5_ip = ms.brute_force_topk(data, q, 5, ms.MetricKind.INNER_PRODUCT)
top5_l2 = ms.brute_force_topk(data, q, 5, ms.MetricKind.EUCLIDEAN)
print("\ntop-5 by inner product:", top5_ip)
print("top-5 by distance:     ", top5_l2)

# the scaled-query duality: a large-mu Euclidean query answers the MIPS
# question exactly
mu = 1e6 * np.linalg.norm(data.data, axis=1).max() / np.linalg.norm(q)
nn_of_scaled = ms.brute_force_topk(data, mu * q, 1, ms.MetricKind.EUCLIDEAN)
print("\nNN of mu*q:", nn_of_scaled, " MIPS argmax:", top5_ip[:1],
      " agree:", nn_of_scaled[0] == top5_ip[0])

# fvecs round-trips are bit-exact
with tempfile.NamedTemporaryFile(suffix=".fvecs") as f:
    ms.write_fvecs(data, f.name)
    back = ms.read_fvecs(f.name)
    print("\nfvecs round-trip bit-exact:",
          back.data.tobytes() == data.data.tobytes())
