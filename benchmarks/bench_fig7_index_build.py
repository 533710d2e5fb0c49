"""Fig. 7 / Exp-1 — index building time and size.

For every dataset: the time to build the partitioned store with its
inverted hyperedge index, the raw graph size, and the index size.  The
paper's observations to reproduce: building is fast even for the largest
dataset, and the index size is similar to the graph size.
"""

from __future__ import annotations

import time

import pytest

from repro.bench import format_table
from repro.datasets import DATASET_ORDER, load_dataset
from repro.hypergraph import PartitionedStore, format_bytes
from repro.hypergraph.statistics import estimate_graph_bytes, estimate_index_bytes

from conftest import write_report


@pytest.fixture(scope="module")
def fig7_rows():
    rows = []
    for name in DATASET_ORDER:
        data = load_dataset(name)
        started = time.perf_counter()
        store = PartitionedStore(data, index_backend="merge")
        elapsed = time.perf_counter() - started
        rows.append(
            {
                "dataset": name,
                "index_time_s": round(elapsed, 4),
                "graph_size": format_bytes(estimate_graph_bytes(data)),
                "index_size": format_bytes(estimate_index_bytes(store)),
                "size_ratio": round(
                    estimate_index_bytes(store)
                    / max(estimate_graph_bytes(data), 1),
                    3,
                ),
            }
        )
    report = format_table(rows, title="Fig. 7 — index build time and size")
    write_report("fig7_index_build", report)
    print("\n" + report)
    return rows


def test_fig7_index_builds_fast(fig7_rows):
    """Paper: ~6.7 s for 4.2M hyperedges; scaled, every analogue builds
    well under a second."""
    assert all(row["index_time_s"] < 1.0 for row in fig7_rows)


def test_fig7_index_size_similar_to_graph(fig7_rows):
    """Exp-1's size observation: index ≈ graph size (ratio 1.0 here
    because both store one entry per incidence)."""
    for row in fig7_rows:
        assert 0.5 <= row["size_ratio"] <= 2.0


def test_bench_index_build_largest(benchmark, fig7_rows):
    data = load_dataset("AR")
    store = benchmark(lambda: PartitionedStore(data, index_backend="merge"))
    assert store.num_partitions() > 0
