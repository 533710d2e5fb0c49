"""Table II — dataset statistics.

Regenerates the paper's dataset table for the ten scaled synthetic
analogues: |V|, |E|, |Σ|, a_max, average arity, partition count and the
graph/index sizes.  The benchmark times the offline preprocessing
(partitioned store construction) for a mid-sized dataset.
"""

from __future__ import annotations

import pytest

from repro.bench import format_table
from repro.datasets import DATASET_ORDER, PAPER_PROFILES, load_dataset, load_store
from repro.hypergraph import PartitionedStore, dataset_statistics

from conftest import write_report


@pytest.fixture(scope="module")
def table2_rows():
    rows = []
    for name in DATASET_ORDER:
        stats = dataset_statistics(name, load_dataset(name), load_store(name))
        row = stats.as_row()
        paper = PAPER_PROFILES[name]
        row["paper |V|"] = paper.num_vertices
        row["paper |E|"] = paper.num_edges
        row["paper a"] = paper.average_arity
        rows.append(row)
    report = format_table(rows, title="Table II (scaled analogues vs paper)")
    write_report("table2_datasets", report)
    print("\n" + report)
    return rows


def test_table2_covers_all_datasets(table2_rows):
    assert [row["dataset"] for row in table2_rows] == list(DATASET_ORDER)


def test_table2_shape_tracks_paper(table2_rows):
    """Vertex-rich vs edge-rich regime must match the paper per dataset."""
    for row in table2_rows:
        assert (row["|V|"] > row["|E|"]) == (row["paper |V|"] > row["paper |E|"])


def test_bench_offline_preprocessing(benchmark, table2_rows):
    """Time the whole offline stage (partitioning + inverted index)."""
    data = load_dataset("TC")
    result = benchmark(lambda: PartitionedStore(data, index_backend="merge"))
    assert result.num_partitions() > 0
