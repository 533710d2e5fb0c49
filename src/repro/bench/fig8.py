"""The shared Fig. 8 trace: one workload definition for all benchmarks.

``bench_index_backends`` and ``bench_sharding`` both
replay the same reproduction-scale Fig. 8 workload (HB/SB × q2/q3/q6,
three queries per setting) so their JSON trajectories stay comparable —
speedups measured on different traces would not be.
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
