"""Benchmark: the shard pool's subtree jobs against the sequential engine.

Runs the Fig. 8 trace (the same HB/SB × q2/q3/q6 workload as
``bench_index_backends``) through three executors:

* **parity** — the pool's subtree jobs (``ShardPool.run``: every member
  holds the whole graph and counts a root part) and the in-process
  ``count_bfs`` must be bit-identical to the sequential engine for all
  three index backends (always enforced);
* **speed-up** — *recorded, not gated*: per backend, sequential,
  ``count(executor="threads", workers=4)`` and the pool's subtree jobs
  on 4 members run the same trace, giving ``speedup_vs_sequential`` and
  the like-for-like ``processes_vs_threads`` (the same four root parts,
  with and without the GIL).  At this scale both sit near 1 on two
  cores — a thresholded wall-clock gate belongs to the scale tier
  (ROADMAP item 2), where a query outlasts its IPC.

The timing protocol measures steady-state serving: the worker pools are
built once (the offline stage, like store building) and every timed
pass replays the full workload; ``REPEATS`` passes, best-of wins.
Results land in ``BENCH_sharding.json`` at the repo root.

Run standalone (``python benchmarks/bench_sharding.py``) or via pytest
(``pytest benchmarks/bench_sharding.py``); the pytest entry point is
the gate.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List

from repro import HGMatch
from repro.bench import (
    FIG8_DATASETS as DATASETS,
    FIG8_QUERIES_PER_SETTING as QUERIES_PER_SETTING,
    FIG8_SETTINGS as SETTINGS,
    fig8_queries,
    make_engine,
    time_pass as _time_pass,
    usable_cores,
    work_model_label,
)
from repro.datasets import load_dataset
from repro.parallel import ShardPool

REPEATS = 3

BACKENDS = ("merge", "bitset", "adaptive")
NUM_SHARDS = 4


RESULT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_sharding.json",
)


def run_benchmark() -> dict:
    """Time and verify every backend; returns the JSON summary."""
    queries = fig8_queries()
    engines: Dict[str, Dict[str, HGMatch]] = {
        dataset: {
            backend: make_engine(load_dataset(dataset), index_backend=backend)
            for backend in BACKENDS
        }
        for dataset in DATASETS
    }
    # Sequential reference counts (the bit-identity baseline).
    reference = [
        engines[dataset][BACKENDS[0]].count(query)
        for dataset, query in queries
    ]

    rows = []
    parity_failures: List[str] = []
    for backend in BACKENDS:
        pools: Dict[str, ShardPool] = {}
        try:
            # Offline stage: spawn the pools and warm them.
            for dataset in DATASETS:
                pools[dataset] = ShardPool(
                    num_shards=NUM_SHARDS, index_backend=backend
                )
                pools[dataset].run(engines[dataset][backend], queries[0][1])

            # Parity: subtree jobs and count_bfs == sequential, per query.
            for (dataset, query), expected in zip(queries, reference):
                engine = engines[dataset][backend]
                if engine.count(query) != expected:
                    parity_failures.append(f"{backend}: sequential drifted")
                result = pools[dataset].run(engine, query)
                if result.embeddings != expected:
                    parity_failures.append(
                        f"{backend}: subtree job returned "
                        f"{result.embeddings}, sequential {expected}"
                    )
                if engine.count_bfs(query) != expected:
                    parity_failures.append(f"{backend}: count_bfs diverged")

            # Timing: best-of-REPEATS full-workload passes.
            sequential_s = min(
                _time_pass(
                    lambda: [
                        engines[dataset][backend].count(query)
                        for dataset, query in queries
                    ]
                )
                for _ in range(REPEATS)
            )
            threads_s = min(
                _time_pass(
                    lambda: [
                        engines[dataset][backend].count(
                            query, executor="threads", workers=NUM_SHARDS
                        )
                        for dataset, query in queries
                    ]
                )
                for _ in range(REPEATS)
            )
            processes_s = min(
                _time_pass(
                    lambda: [
                        pools[dataset].run(engines[dataset][backend], query)
                        for dataset, query in queries
                    ]
                )
                for _ in range(REPEATS)
            )
        finally:
            for pool in pools.values():
                pool.close()

        rows.append(
            {
                "backend": backend,
                "work_model": work_model_label(backend),
                "sequential_seconds": round(sequential_s, 6),
                f"threads{NUM_SHARDS}_seconds": round(threads_s, 6),
                f"processes{NUM_SHARDS}_seconds": round(processes_s, 6),
                "speedup_vs_sequential": round(
                    sequential_s / max(processes_s, 1e-12), 3
                ),
                "processes_vs_threads": round(
                    threads_s / max(processes_s, 1e-12), 3
                ),
            }
        )

    return {
        "benchmark": "sharding",
        "workload": {
            "datasets": list(DATASETS),
            "settings": list(SETTINGS),
            "queries_per_setting": QUERIES_PER_SETTING,
            "repeats": REPEATS,
            "queries": len(queries),
        },
        "num_shards": NUM_SHARDS,
        "cores": usable_cores(),
        "parity_failures": parity_failures,
        "rows": rows,
    }


def write_summary(summary: dict) -> str:
    with open(RESULT_PATH, "w", encoding="utf-8") as stream:
        json.dump(summary, stream, indent=2)
        stream.write("\n")
    return RESULT_PATH


# ----------------------------------------------------------------------
# pytest entry point (the gate)
# ----------------------------------------------------------------------
import pytest


@pytest.fixture(scope="module")
def summary():
    result = run_benchmark()
    write_summary(result)
    return result


def test_sharded_counts_bit_identical(summary):
    """Subtree-job and count_bfs parity against the sequential engine,
    all three index backends, every workload query."""
    assert summary["parity_failures"] == []


def main() -> int:
    result = run_benchmark()
    path = write_summary(result)
    for row in result["rows"]:
        print(
            f"{row['backend']}: seq={row['sequential_seconds']:.4f}s "
            f"threads{NUM_SHARDS}={row[f'threads{NUM_SHARDS}_seconds']:.4f}s "
            f"processes{NUM_SHARDS}={row[f'processes{NUM_SHARDS}_seconds']:.4f}s "
            f"(x{row['speedup_vs_sequential']:.2f} vs sequential, "
            f"x{row['processes_vs_threads']:.2f} vs threads)"
        )
    print(f"cores={result['cores']} -> {path}")
    # Mirror the pytest gate for CI's script-mode run.
    return 0 if not result["parity_failures"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
