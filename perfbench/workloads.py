"""The benchmark's workloads and their input generators.

Every input comes from the run's ``--seed``: the data, the queries and the
search seeds are drawn from three different seeds derived from it, so the
same seed gives the same inputs and the queries never share the data's
random stream.

Sizes are chosen so that one run, with three timed set-ups and a
one-worker reference build, fits in well under a minute on 2 CPUs, and so
that the smallest pool size reaching recall 0.95 sits clear of the
neighbouring schedule steps on every seed (otherwise ``ls_r95`` would flip
between seeds and every end-to-end metric with it).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from magsearch.bench import SyntheticSpec, generate_synthetic
from magsearch.metrics import Dataset

DIM = 16
TARGET_RECALL = 0.95
# build parameters shared by every workload (the paper's default regime)
BUILD = {"K": 32, "K1": 16, "K2": 16, "ls": 64, "passes": 3, "seed": 0}
# smoke mode: a few seconds per workload, for the benchmark's own check
SMOKE_N = 600
SMOKE_QUERIES = 100


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str        # gaussian | heavytail | trap
    n: int
    n_queries: int
    k: int
    R: int
    alpha: float
    m: int           # Euclidean expansions before the switch; 0 = IP only

    def params(self) -> dict:
        return {"kind": self.kind, "n": self.n, "dim": DIM,
                "n_queries": self.n_queries, "k": self.k, "R": self.R,
                "alpha": self.alpha, "m": self.m,
                "target_recall": TARGET_RECALL, "build": BUILD}


WORKLOADS = {w.name: w for w in (
    Workload("gauss-ip",
             "Gaussian data, the paper's default regime: IP phase only with "
             "a medium pool, so graph traversal and pool upkeep dominate.",
             "gaussian", n=1200, n_queries=1000, k=10, R=16, alpha=0.5, m=0),
    Workload("heavy-ip",
             "Heavy-tailed norms (c07 panel): sparse self-dominators make "
             "searches short, so fixed per-query cost and seeding weigh most.",
             "heavytail", n=1000, n_queries=1000, k=10, R=32, alpha=0.5, m=0),
    Workload("trap-anms",
             "c06 high-norm trap with k=100: the only workload that runs the "
             "Euclidean phase and the re-score at the switch, with deep pools.",
             "trap", n=1200, n_queries=500, k=100, R=16, alpha=0.5, m=32),
)}


def derive_seeds(seed: int, workload: str) -> tuple[int, int, int]:
    """(data seed, query seed, search seed), all different, from one seed."""
    ss = np.random.SeedSequence([seed, zlib.crc32(workload.encode())])
    return tuple(int(s) for s in ss.generate_state(3))


def make_trap_dataset(data_seed: int, query_seed: int, n_cloud: int,
                      n_queries: int, n_answers: int = 110,
                      n_outliers: int = 120, dim: int = DIM
                      ) -> tuple[Dataset, Dataset]:
    """Clustered blobs plus a high-norm outlier cluster that baits pure-IP
    navigation: answers sit in a tight blob on the rim of a background
    cloud along the query direction; outliers carry 7x the norm but point
    nearly orthogonally, so they win intermediate IP comparisons and lose
    the final ranking.

    The c06 acceptance generator, except that the queries come from their
    own seed.
    """
    rng = np.random.default_rng(data_seed)
    u = np.zeros(dim)
    u[0] = 1.0
    cloud = 0.9 * rng.standard_normal((n_cloud, dim))
    answers = 4.0 * u + 0.3 * rng.standard_normal((n_answers, dim))
    v = rng.standard_normal((n_outliers, dim))
    v[:, 0] = 0.0
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    outliers = 30.0 * (np.cos(np.deg2rad(87.0)) * u + np.sin(np.deg2rad(87.0)) * v)
    outliers += 0.3 * rng.standard_normal((n_outliers, dim))
    data = np.vstack([answers, outliers, cloud]).astype(np.float32)
    data = data[rng.permutation(len(data))]
    qrng = np.random.default_rng(query_seed)
    queries = 4.0 * u + 0.04 * qrng.standard_normal((n_queries, dim))
    return (Dataset(np.ascontiguousarray(data)),
            Dataset(np.ascontiguousarray(queries, dtype=np.float32)))


def make_inputs(w: Workload, seed: int, smoke: bool = False
                ) -> tuple[Dataset, Dataset, int]:
    """(data, queries, search seed) for one run of workload ``w``."""
    data_seed, query_seed, search_seed = derive_seeds(seed, w.name)
    n = SMOKE_N if smoke else w.n
    nq = SMOKE_QUERIES if smoke else w.n_queries
    if w.kind == "trap":
        data, queries = make_trap_dataset(data_seed, query_seed,
                                          n_cloud=n - 230, n_queries=nq)
    else:
        data = generate_synthetic(SyntheticSpec(w.kind, n=n, dim=DIM,
                                                seed=data_seed, sigma_log=0.5))
        queries = generate_synthetic(SyntheticSpec(w.kind, n=nq, dim=DIM,
                                                   seed=query_seed, sigma_log=0.5))
    return data, queries, search_seed
