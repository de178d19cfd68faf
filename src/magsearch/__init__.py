"""Graph-based maximum inner product search with metric-amphibious indexing.

The index stitches two edge families — Euclidean-pruned neighbors for
graph-wide connectivity and inner-product dominator edges for fast norm
climbing — and loads them at query time under an out-degree budget R and
an IP-edge ratio alpha. Search runs a bounded-pool greedy traversal that
can start under Euclidean distance and switch to inner product after m
expansions.
"""

from .bench import (SyntheticSpec, bench_one, generate_synthetic,
                    recall_at_k, run_benchmark, run_scaling_study,
                    verify_suite)
from .construction import (build_exact_knn, build_exact_ndg,
                           count_strong_components, mrng_prune, ndg_select)
from .errors import FormatError, UsageError
from .index import (MagIndex, build_mag, build_stage1, build_stage2,
                    load_index, materialize, save_index)
from .io import (brute_force_topk, compute_ground_truth, read_fvecs,
                 read_ivecs, write_fvecs)
from .metrics import Dataset, MetricKind, score_batch
from .search import (SearchParams, anms_search, greedy_search,
                     run_queries)
from .stats import (compute_stats, dominator_probability,
                    dominator_probability_mc, estimate_nn_angle,
                    expected_self_dominators, self_dominator_set, tuning_hint)

__version__ = "0.1.0"
