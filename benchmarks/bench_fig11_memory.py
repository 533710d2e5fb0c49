"""Fig. 11 / Exp-5 — task-based scheduling vs BFS memory usage.

The paper runs the 20 q3 queries on AR with 20 threads and compares
memory: BFS grows with the embedding count (materialising every level)
while the task scheduler stays flat (~4.8 GB) thanks to the Theorem VI.1
bound.  Memory here is measured in retained partial embeddings / entry
units (``repro.parallel.memory``); the shape to reproduce is BFS'
growth with result count vs the scheduler's bounded peak.
"""

from __future__ import annotations

import pytest

from repro import HGMatch
from repro.bench import format_table, workload
from repro.datasets import load_dataset, load_store
from repro.errors import TimeoutExceeded
from repro.parallel import measure_memory, theoretical_memory_bound

from conftest import write_report

QUERIES = 8


@pytest.fixture(scope="module")
def fig11_rows():
    engine = HGMatch(load_dataset("AR"), store=load_store("AR"))
    rows = []
    for index, query in enumerate(workload("AR", "q3", QUERIES)):
        try:
            task = measure_memory(engine, query, "task")
            bfs = measure_memory(engine, query, "bfs")
        except TimeoutExceeded:  # pragma: no cover - workload is sized to fit
            continue
        rows.append(
            {
                "query": index + 1,
                "embeddings": task.embeddings,
                "task_peak_units": task.peak_entry_units,
                "bfs_peak_units": bfs.peak_entry_units,
                "bound_units": theoretical_memory_bound(query, engine.data),
            }
        )
    rows.sort(key=lambda row: row["embeddings"])
    report = format_table(
        rows, title="Fig. 11 — peak retained memory (entry units)"
    )
    write_report("fig11_memory", report)
    print("\n" + report)
    return rows


def test_fig11_bfs_grows_with_result_count(fig11_rows):
    """BFS peak memory tracks the embedding count; for the heaviest
    queries it must dwarf the scheduler's."""
    heaviest = fig11_rows[-1]
    if heaviest["embeddings"] > 100:
        assert heaviest["bfs_peak_units"] > 3 * heaviest["task_peak_units"]


def test_fig11_task_scheduler_stays_bounded(fig11_rows):
    """Every task-scheduler peak respects the Theorem VI.1 bound."""
    for row in fig11_rows:
        assert row["task_peak_units"] <= row["bound_units"]


def test_fig11_task_memory_stable_across_queries(fig11_rows):
    """The paper stresses the scheduler's memory is stable (~4.8 GB for
    all 20 queries); the scaled analogue: the task peak varies far less
    than the BFS peak does."""
    task_peaks = [row["task_peak_units"] for row in fig11_rows]
    bfs_peaks = [row["bfs_peak_units"] for row in fig11_rows]
    if min(task_peaks) > 0 and min(bfs_peaks) > 0:
        task_spread = max(task_peaks) / min(task_peaks)
        bfs_spread = max(bfs_peaks) / min(bfs_peaks)
        assert task_spread <= bfs_spread


def test_bench_task_scheduler_memory_run(benchmark, fig11_rows):
    engine = HGMatch(load_dataset("AR"), store=load_store("AR"))
    query = workload("AR", "q3", 1)[0]
    measurement = benchmark(lambda: measure_memory(engine, query, "task"))
    assert measurement.embeddings >= 1
