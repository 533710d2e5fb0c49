"""Fig. 12 / Exp-6 — dynamic work stealing vs static assignment.

The paper runs one heavy q3 query on AR with 20 workers and plots the
per-worker running time, sorted ascending: without stealing
("HGMatch-NOSTL") the last workers straggle; with stealing all workers
finish near the average.  Reproduced on the simulated executor's
virtual-time busy times ("Executors" in docs/ARCHITECTURE.md says why
the time is virtual).
"""

from __future__ import annotations

import pytest

from repro import HGMatch
from repro.bench import format_series, format_table, workload
from repro.datasets import load_dataset, load_store
from repro.parallel import SimulatedExecutor

from conftest import write_report

WORKERS = 20


@pytest.fixture(scope="module")
def fig12_results():
    engine = HGMatch(load_dataset("AR"), store=load_store("AR"))
    queries = workload("AR", "q3", 6)
    query = max(queries, key=lambda q: engine.count(q, time_budget=5.0))
    with_steal = SimulatedExecutor(WORKERS, stealing=True).run(engine, query)
    without = SimulatedExecutor(WORKERS, stealing=False).run(engine, query)

    lines = [
        format_series(
            "HGMatch       ", sorted(with_steal.busy_times()), unit="work units"
        ),
        format_series(
            "HGMatch-NOSTL ", sorted(without.busy_times()), unit="work units"
        ),
    ]
    summary = format_table(
        [
            {
                "variant": "HGMatch",
                "makespan": round(with_steal.makespan, 1),
                "imbalance": round(with_steal.load_imbalance(), 3),
                "steals": with_steal.total_steals,
            },
            {
                "variant": "HGMatch-NOSTL",
                "makespan": round(without.makespan, 1),
                "imbalance": round(without.load_imbalance(), 3),
                "steals": without.total_steals,
            },
        ],
        title="Fig. 12 — per-worker load with/without stealing",
    )
    report = summary + "\n" + "\n".join(lines)
    write_report("fig12_load_balancing", report)
    print("\n" + report)
    return with_steal, without


def test_fig12_counts_agree(fig12_results):
    with_steal, without = fig12_results
    assert with_steal.embeddings == without.embeddings


def test_fig12_stealing_improves_balance(fig12_results):
    """Work stealing yields near-perfect balance; static assignment shows
    visible skew (the paper's dashed-average plot)."""
    with_steal, without = fig12_results
    assert with_steal.load_imbalance() <= without.load_imbalance()
    assert with_steal.load_imbalance() <= 1.5


def test_fig12_stealing_reduces_makespan(fig12_results):
    with_steal, without = fig12_results
    assert with_steal.makespan <= without.makespan * 1.02


def test_fig12_steals_actually_happen(fig12_results):
    with_steal, without = fig12_results
    assert with_steal.total_steals > 0
    assert without.total_steals == 0


def test_bench_simulated_20_workers(benchmark, fig12_results):
    engine = HGMatch(load_dataset("AR"), store=load_store("AR"))
    query = workload("AR", "q3", 1)[0]
    executor = SimulatedExecutor(WORKERS)
    result = benchmark(lambda: executor.run(engine, query))
    assert result.embeddings >= 1
