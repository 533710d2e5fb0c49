"""Ablation — work-stealing granularity (steal-half vs steal-one vs none).

The steal-half-from-tail policy is a design choice of the paper
(Section VI-C follows Cilk-style stealing).  This ablation compares, on
the simulated executor: stealing half the victim's queue, stealing a
single task, and no stealing at all — by makespan, steal count and load
imbalance on a heavy AR query.
"""

from __future__ import annotations

import pytest

from repro import HGMatch
from repro.bench import format_table, workload
from repro.datasets import load_dataset, load_store
from repro.parallel import SimulatedExecutor

from conftest import write_report

WORKERS = 12


@pytest.fixture(scope="module")
def stealing_rows():
    engine = HGMatch(load_dataset("AR"), store=load_store("AR"))
    queries = workload("AR", "q3", 6)
    query = max(queries, key=lambda q: engine.count(q, time_budget=5.0))

    variants = {
        "steal-half": SimulatedExecutor(WORKERS, stealing=True, steal_mode="half"),
        "steal-one": SimulatedExecutor(WORKERS, stealing=True, steal_mode="one"),
        "no-steal": SimulatedExecutor(WORKERS, stealing=False),
    }
    rows = []
    results = {}
    for name, executor in variants.items():
        result = executor.run(engine, query)
        results[name] = result
        rows.append(
            {
                "variant": name,
                "makespan": round(result.makespan, 1),
                "imbalance": round(result.load_imbalance(), 3),
                "steals": result.total_steals,
                "embeddings": result.embeddings,
            }
        )
    report = format_table(rows, title="Ablation — stealing granularity")
    write_report("ablation_stealing", report)
    print("\n" + report)
    return results


def test_all_variants_agree_on_counts(stealing_rows):
    counts = {result.embeddings for result in stealing_rows.values()}
    assert len(counts) == 1


def test_stealing_beats_no_stealing(stealing_rows):
    assert (
        stealing_rows["steal-half"].makespan
        <= stealing_rows["no-steal"].makespan * 1.02
    )


def test_steal_half_needs_fewer_steals_than_steal_one(stealing_rows):
    """Taking half the queue amortises the steal overhead: fewer steal
    events for the same balance."""
    half = stealing_rows["steal-half"]
    one = stealing_rows["steal-one"]
    if one.total_steals > 20:
        assert half.total_steals <= one.total_steals


def test_bench_steal_half_execution(benchmark, stealing_rows):
    engine = HGMatch(load_dataset("AR"), store=load_store("AR"))
    query = workload("AR", "q3", 1)[0]
    executor = SimulatedExecutor(WORKERS, stealing=True, steal_mode="half")
    result = benchmark(lambda: executor.run(engine, query))
    assert result.embeddings >= 1
