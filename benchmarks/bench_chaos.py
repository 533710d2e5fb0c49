"""Benchmark: socket pools under deterministic faults.

The robustness gate for the pool runtime.  A four-member loopback
cluster runs a Fig. 8 workload slice while a seeded
:class:`~repro.parallel.chaos.FaultPlan` kills one worker process right
after its first SUBTREE request lands on it (the fault position is a
frame count, so every run reproduces the same mid-job kill).  Gates:

* **failover parity** — the faulted run must finish with counts
  bit-identical to the sequential engine on all three index backends,
  and the surviving pool must keep answering follow-up jobs exactly
  (always enforced);
* **fail-fast** — the same kill against a *one-member* pool must raise
  a clean ``SchedulerError``, quickly (bounded by a fraction of the I/O
  deadline: the coordinator notices the closed connection, it does not
  sit out the timeout);
* **overhead** — wall-clock of the faulted run vs the unfaulted
  four-member run is *recorded* (not gated: on single-core hosts the
  respawn/failover cost is noise-dominated), so multi-core CI trends
  stay visible.

Results land in ``BENCH_chaos.json`` at the repo root.  Run standalone
(``python benchmarks/bench_chaos.py``) or via pytest; the pytest entry
points are the gates.
"""

from __future__ import annotations

import json
import os
import time
from typing import List

from repro.bench import (
    FIG8_DATASETS,
    fig8_queries,
    make_engine,
    usable_cores,
)
from repro.datasets import load_dataset
from repro.errors import SchedulerError
from repro.parallel import FaultPlan, ShardPool, spawn_local_cluster

BACKENDS = ("merge", "bitset", "adaptive")
NUM_SHARDS = 4
NUM_QUERIES = 3
IO_TIMEOUT = 60.0
FAILFAST_BUDGET = IO_TIMEOUT / 2  # EOF-driven, must beat the deadline

RESULT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_chaos.json",
)


def _workload():
    """The first ``NUM_QUERIES`` Fig. 8 queries of the first dataset."""
    dataset = FIG8_DATASETS[0]
    queries = [
        query for name, query in fig8_queries() if name == dataset
    ][:NUM_QUERIES]
    return dataset, queries


def _run_all(executor, engine, queries) -> List[int]:
    return [executor.run(engine, query).embeddings for query in queries]


def run_benchmark() -> dict:
    """Fault the four-member pool and verify exact counts; returns the
    JSON summary."""
    dataset, queries = _workload()
    failures: List[str] = []
    rows = []
    for backend in BACKENDS:
        engine = make_engine(load_dataset(dataset), index_backend=backend)
        try:
            expected = [engine.count(query) for query in queries]

            # Unfaulted baseline (owns its own cluster).
            cluster = spawn_local_cluster(
                engine.data, NUM_SHARDS, index_backend=backend,
            )
            try:
                executor = ShardPool(
                    addresses=list(cluster.addresses),
                    index_backend=backend,
                    io_timeout=IO_TIMEOUT,
                )
                try:
                    started = time.perf_counter()
                    clean_counts = _run_all(executor, engine, queries)
                    clean_s = time.perf_counter() - started
                finally:
                    executor.close()
            finally:
                cluster.close()
            if clean_counts != expected:
                failures.append(
                    f"{backend}: unfaulted pool returned "
                    f"{clean_counts}, sequential {expected}"
                )

            # Kill member 0 right after its first SUBTREE frame; the
            # other members must carry the job and every follow-up
            # query, all bit-identical.
            plan = FaultPlan(seed=11)
            plan.kill_worker(0, after_frames=1)
            cluster = spawn_local_cluster(
                engine.data, NUM_SHARDS, index_backend=backend,
            )
            try:
                plan.arm_killer(0, lambda: cluster.kill_member(0))
                executor = ShardPool(
                    addresses=list(cluster.addresses),
                    index_backend=backend,
                    io_timeout=IO_TIMEOUT,
                    chaos=plan,
                )
                try:
                    started = time.perf_counter()
                    faulted_counts = _run_all(executor, engine, queries)
                    faulted_s = time.perf_counter() - started
                finally:
                    executor.close()
            finally:
                cluster.close()
            if faulted_counts != expected:
                failures.append(
                    f"{backend}: faulted pool returned "
                    f"{faulted_counts}, sequential {expected}"
                )
            if not all(fault.consumed for fault in plan.faults):
                failures.append(f"{backend}: kill fault never fired")

            # The same kill with no other member: a clean, prompt
            # SchedulerError — never a hang.  The reply is held back so
            # the kill lands before it.
            plan = FaultPlan(seed=11)
            plan.kill_worker(0, after_frames=1)
            plan.slow_reply(0, after_frames=2, seconds=1.0)
            cluster = spawn_local_cluster(
                engine.data, 1, index_backend=backend, chaos=plan
            )
            failfast_s = None
            try:
                plan.arm_killer(0, lambda: cluster.kill_member(0))
                executor = ShardPool(
                    addresses=list(cluster.addresses),
                    index_backend=backend,
                    io_timeout=IO_TIMEOUT,
                    chaos=plan,
                )
                try:
                    started = time.perf_counter()
                    try:
                        executor.run(engine, queries[0])
                        failures.append(
                            f"{backend}: one-member kill did not raise"
                        )
                    except SchedulerError as exc:
                        failfast_s = time.perf_counter() - started
                        if "disconnected mid-job" not in str(exc):
                            failures.append(
                                f"{backend}: unexpected failure mode: "
                                f"{exc}"
                            )
                finally:
                    executor.close()
            finally:
                cluster.close()
            if failfast_s is not None and failfast_s > FAILFAST_BUDGET:
                failures.append(
                    f"{backend}: fail-fast took {failfast_s:.1f}s "
                    f"(budget {FAILFAST_BUDGET:.1f}s)"
                )
        finally:
            engine.close()

        rows.append(
            {
                "backend": backend,
                "clean_seconds": round(clean_s, 6),
                "faulted_seconds": round(faulted_s, 6),
                "failover_overhead": round(
                    faulted_s / max(clean_s, 1e-12), 3
                ),
                "failfast_seconds": (
                    None if failfast_s is None else round(failfast_s, 6)
                ),
                "counts": faulted_counts,
            }
        )

    return {
        "benchmark": "chaos",
        "workload": {
            "dataset": dataset,
            "queries": len(queries),
        },
        "num_shards": NUM_SHARDS,
        "io_timeout_seconds": IO_TIMEOUT,
        "cores": usable_cores(),
        "fault": "kill shard 0 after coordinator frame 1",
        "failures": failures,
        "rows": rows,
    }


def write_summary(summary: dict) -> str:
    with open(RESULT_PATH, "w", encoding="utf-8") as stream:
        json.dump(summary, stream, indent=2)
        stream.write("\n")
    return RESULT_PATH


# ----------------------------------------------------------------------
# pytest entry points (the gates)
# ----------------------------------------------------------------------
import pytest


@pytest.fixture(scope="module")
def summary():
    result = run_benchmark()
    write_summary(result)
    return result


def test_failover_counts_bit_identical(summary):
    """Killing a worker mid-job on a four-member pool must not change a
    single count on any index backend, and the one-member kill must
    fail fast with a clean SchedulerError."""
    assert summary["failures"] == []


def test_every_backend_survived_the_kill(summary):
    assert [row["backend"] for row in summary["rows"]] == list(BACKENDS)
    for row in summary["rows"]:
        assert row["faulted_seconds"] > 0
        assert row["failfast_seconds"] is not None


def main() -> int:
    result = run_benchmark()
    path = write_summary(result)
    for row in result["rows"]:
        print(
            f"{row['backend']}: clean={row['clean_seconds']:.4f}s "
            f"faulted={row['faulted_seconds']:.4f}s "
            f"(x{row['failover_overhead']:.2f}) "
            f"failfast={row['failfast_seconds']}s"
        )
    status = "OK" if not result["failures"] else "FAIL"
    print(
        f"cores={result['cores']} fault='{result['fault']}' "
        f"{status} -> {path}"
    )
    for failure in result["failures"]:
        print(f"  {failure}")
    return 0 if not result["failures"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
