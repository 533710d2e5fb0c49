"""Shared benchmark infrastructure.

Experiment rows are computed once per session (they are expensive —
baseline timeouts dominate) and shared between the Fig. 8 timing bench
and the Table IV completion bench.  Every bench module also writes its
formatted report to ``benchmarks/reports/<experiment>.txt`` so the
tables survive pytest's output capture.
"""

from __future__ import annotations

import os
from typing import Dict, List

import pytest

from repro import HGMatch
from repro.baselines import BASELINE_NAMES, make_baseline
from repro.bench import (
    QueryRecord,
    run_baseline,
    run_hgmatch,
    workload,
)
from repro.datasets import SINGLE_THREAD_DATASETS, load_dataset, load_store

#: Reproduction-scale protocol: the paper uses 20 queries/setting and a
#: 1-hour timeout on a 40-core server; we use 2 queries/setting and a
#: 1.5 s timeout so the full grid stays within a CI-sized budget.
QUERIES_PER_SETTING = 2
BENCH_TIMEOUT = 1.5
REPORT_DIR = os.path.join(os.path.dirname(__file__), "reports")


def write_report(name: str, text: str) -> str:
    """Persist a report table; returns the path."""
    os.makedirs(REPORT_DIR, exist_ok=True)
    path = os.path.join(REPORT_DIR, f"{name}.txt")
    with open(path, "w", encoding="utf-8") as stream:
        stream.write(text + "\n")
    return path


@pytest.fixture(scope="session")
def single_thread_records() -> List[QueryRecord]:
    """The full Exp-2 grid: every engine × dataset × setting × query.

    This is the shared substrate of Fig. 8 (average times) and Table IV
    (completion ratios).
    """
    records: List[QueryRecord] = []
    engines: Dict[str, HGMatch] = {}
    for dataset in SINGLE_THREAD_DATASETS:
        data = load_dataset(dataset)
        engines[dataset] = HGMatch(data, store=load_store(dataset))
        matchers = {name: make_baseline(name, data) for name in BASELINE_NAMES}
        for setting in ("q2", "q3", "q4", "q6"):
            queries = workload(dataset, setting, QUERIES_PER_SETTING)
            for index, query in enumerate(queries):
                records.append(
                    run_hgmatch(
                        engines[dataset], query, dataset, setting, index,
                        timeout=BENCH_TIMEOUT,
                    )
                )
                for name in BASELINE_NAMES:
                    records.append(
                        run_baseline(
                            matchers[name], query, dataset, setting, index,
                            timeout=BENCH_TIMEOUT,
                        )
                    )
    return records
