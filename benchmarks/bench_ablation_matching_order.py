"""Ablation — the cardinality-driven matching order (Algorithm 3).

The matching order is one of the paper's core design choices: start at
the rarest signature, extend by minimum cardinality/connectivity.  This
ablation compares the Algorithm 3 order against the *reverse* of that
order and against the identity order, measuring total set-operation work
units on the same queries.  Expectation: the planned order never does
meaningfully more work and usually does much less.
"""

from __future__ import annotations

import pytest

from repro import HGMatch, MatchCounters
from repro.bench import format_table, workload
from repro.core.estimation import estimate_driven_order
from repro.core.ordering import compute_matching_order, is_connected_order
from repro.datasets import load_dataset, load_store
from repro.errors import TimeoutExceeded

from conftest import write_report

DATASETS = ("SB", "HB", "TC")


def _work_units(engine, query, order) -> "int | None":
    counters = MatchCounters()
    try:
        engine.count(query, order=order, counters=counters, time_budget=3.0)
    except TimeoutExceeded:
        return None
    return counters.work_units


@pytest.fixture(scope="module")
def ablation_rows():
    rows = []
    for dataset in DATASETS:
        engine = HGMatch(load_dataset(dataset), store=load_store(dataset))
        for index, query in enumerate(workload(dataset, "q4", 2)):
            planned = compute_matching_order(query, engine.store)
            estimated = estimate_driven_order(query, engine.store)
            reverse = tuple(reversed(planned))
            row = {
                "dataset": dataset,
                "query": index,
                "planned": _work_units(engine, query, planned),
                "estimate_driven": _work_units(engine, query, estimated),
            }
            row["reversed"] = (
                _work_units(engine, query, reverse)
                if is_connected_order(query, reverse)
                else None
            )
            identity = tuple(range(query.num_edges))
            row["identity"] = (
                _work_units(engine, query, identity)
                if is_connected_order(query, identity)
                else None
            )
            rows.append(row)
    printable = [
        {key: ("timeout/n-a" if value is None else value) for key, value in row.items()}
        for row in rows
    ]
    report = format_table(
        printable, title="Ablation — matching order (set-operation work units)"
    )
    write_report("ablation_matching_order", report)
    print("\n" + report)
    return rows


def test_planned_order_always_completes(ablation_rows):
    assert all(row["planned"] is not None for row in ablation_rows)


def test_planned_order_is_never_much_worse(ablation_rows):
    """The planned order's work is within 2× of any alternative that
    completed (it is usually far better; tiny queries can tie)."""
    for row in ablation_rows:
        for alternative in ("reversed", "identity"):
            other = row[alternative]
            if other is not None and other > 1000:
                assert row["planned"] <= 2 * other, row


def test_planned_order_wins_in_aggregate(ablation_rows):
    planned_total = sum(row["planned"] for row in ablation_rows)
    alternative_total = 0
    for row in ablation_rows:
        others = [row[k] for k in ("reversed", "identity") if row[k] is not None]
        alternative_total += max(others) if others else row["planned"]
    assert planned_total <= alternative_total


def test_bench_planned_order_execution(benchmark, ablation_rows):
    engine = HGMatch(load_dataset("SB"), store=load_store("SB"))
    query = workload("SB", "q4", 1)[0]
    count = benchmark(lambda: engine.count(query))
    assert count >= 1
