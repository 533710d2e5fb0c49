"""The shared Fig. 8 trace: one workload definition for all benchmarks.

``bench_index_backends`` and ``bench_sharding`` both
replay the same reproduction-scale Fig. 8 workload (HB/SB × q2/q3/q6,
three queries per setting) so their JSON trajectories stay comparable —
payload ratios and speedups measured on different traces would not be.
Defining the trace (and the small timing/affinity helpers the executor
benchmarks share) once here is what keeps that invariant from drifting
when the workload changes.
"""

from __future__ import annotations

import os
import time
from typing import List, Tuple

from .queries import workload

#: The Fig. 8 protocol at reproduction scale.
FIG8_DATASETS = ("HB", "SB")
FIG8_SETTINGS = ("q2", "q3", "q6")
FIG8_QUERIES_PER_SETTING = 3


def usable_cores() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def fig8_queries() -> "List[Tuple[str, object]]":
    """The full trace as ``(dataset_name, query)`` pairs, in the fixed
    benchmark order."""
    queries = []
    for dataset in FIG8_DATASETS:
        for setting in FIG8_SETTINGS:
            for query in workload(
                dataset, setting, FIG8_QUERIES_PER_SETTING
            ):
                queries.append((dataset, query))
    return queries


def time_pass(run_pass) -> float:
    """Wall-clock one full workload pass."""
    started = time.perf_counter()
    run_pass()
    return time.perf_counter() - started


# ----------------------------------------------------------------------
# The skewed trace (shard-placement benchmarks)
# ----------------------------------------------------------------------

#: Shard count the skewed trace is calibrated against (its hot
#: partition holds fewer rows than this, which is the whole point).
SKEW_NUM_SHARDS = 4

#: Shape of the synthetic skewed instance: (label, rows, arity) per
#: signature partition.  One *hot* partition concentrates its posting
#: mass in a single row of arity 256 — one indivisible unit, so a
#: uniform row-count split parks all of it on shard 0 on top of shard
#: 0's even share of everything else; the finer partitions carry
#: enough mass for a balanced cut to compensate (shard 0 gets the hot
#: row and little else), but under uniform placement they split evenly
#: and cannot.
SKEW_PARTITIONS = (
    ("H", 1, 256),  # the hot signature partition
    ("C", 16, 32),
    ("D", 6, 8),
)


def skewed_instance():
    """The skewed workload: ``(data, queries)`` with one hot partition.

    The data hypergraph realises :data:`SKEW_PARTITIONS` with disjoint
    vertex blocks (every edge of a partition carries the same
    single-label signature), and the workload is one single-edge query
    per signature, so each query's work is a scan + validate over
    exactly one partition and per-row cost is proportional to arity —
    i.e. to posting mass, the statistic balanced placement cuts by.
    Under uniform placement the per-shard load imbalance on this trace
    comes entirely from the hot partition's indivisible rows; balanced
    placement compensates with the finer partitions' rows.  Everything
    is deterministic: no RNG, fixed vertex numbering.
    """
    from ..hypergraph import Hypergraph

    labels = []
    edges = []
    for label, rows, arity in SKEW_PARTITIONS:
        for _ in range(rows):
            base = len(labels)
            labels.extend([label] * arity)
            edges.append(set(range(base, base + arity)))
    data = Hypergraph(labels=labels, edges=edges)
    queries = []
    for label, _rows, arity in SKEW_PARTITIONS:
        queries.append(
            Hypergraph(labels=[label] * arity, edges=[set(range(arity))])
        )
    return data, queries
