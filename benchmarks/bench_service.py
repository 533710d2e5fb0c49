"""Benchmark: the always-on match service multiplexing a Fig. 8 slice.

The service gate.  One :class:`~repro.service.service.MatchService`
(2-shard multiplexed pool) takes the first Fig. 8 queries of the first
dataset *concurrently* on every index backend.  Gates:

* **multiplexed parity** — every concurrently-submitted query must
  return counts bit-identical to the sequential engine (always
  enforced, all three backends).  The service's inline route is
  switched off here (``INLINE_COST`` patched to 0), so every query —
  small ones too — is a subtree job on the pool, and at least one
  frame per query must cross the wire;
* **cache bypass** — resubmitting a finished query must be served from
  the LRU result cache without a single additional frame crossing the
  wire (the pool's dispatch counter is the proof), and must return the
  same count;
* **throughput** — concurrent wall-clock vs the sequential solo run is
  *recorded* (not gated: single-core hosts serialise the shard
  workers), as is the cache-hit latency, so CI trends stay visible.

Results land in ``BENCH_service.json`` at the repo root.  Run
standalone (``python benchmarks/bench_service.py``) or via pytest; the
pytest entry points are the gates.
"""

from __future__ import annotations

import json
import os
import time
from typing import List
from unittest import mock

from repro.bench import (
    FIG8_DATASETS,
    fig8_queries,
    make_engine,
    usable_cores,
)
from repro.datasets import load_dataset
from repro.service import MatchService
from repro.service import service as service_module

BACKENDS = ("merge", "bitset", "adaptive")
NUM_SHARDS = 2
NUM_QUERIES = 3
QUEUE_DEPTH = 16

RESULT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_service.json",
)


def _workload():
    """The first ``NUM_QUERIES`` Fig. 8 queries of the first dataset."""
    dataset = FIG8_DATASETS[0]
    queries = [
        query for name, query in fig8_queries() if name == dataset
    ][:NUM_QUERIES]
    return dataset, queries


def run_benchmark() -> dict:
    """Multiplex the workload through one service per backend and
    verify exact counts; returns the JSON summary."""
    dataset, queries = _workload()
    failures: List[str] = []
    rows = []
    for backend in BACKENDS:
        engine = make_engine(load_dataset(dataset), index_backend=backend)
        try:
            started = time.perf_counter()
            expected = [engine.count(query) for query in queries]
            solo_s = time.perf_counter() - started

            service = MatchService(
                engine,
                shards=NUM_SHARDS,
                max_concurrent=NUM_QUERIES,
                queue_depth=QUEUE_DEPTH,
            )
            try:
                # All queries in flight together over the one pool —
                # none of them inline, however cheap.
                started = time.perf_counter()
                with mock.patch.object(service_module, "INLINE_COST", 0):
                    tickets = [service.submit(query) for query in queries]
                    concurrent = [
                        ticket.result(timeout=600) for ticket in tickets
                    ]
                concurrent_s = time.perf_counter() - started
                if service.pool.dispatched_frames < len(queries):
                    failures.append(
                        f"{backend}: {len(queries)} queries dispatched "
                        f"only {service.pool.dispatched_frames} frames"
                    )
                counts = [result.embeddings for result in concurrent]
                if counts != expected:
                    failures.append(
                        f"{backend}: multiplexed service returned "
                        f"{counts}, sequential {expected}"
                    )
                if any(ticket.cached for ticket in tickets):
                    failures.append(
                        f"{backend}: first submission claimed a cache hit"
                    )

                # Resubmit the first query: a cache hit, and not one
                # frame of pool traffic.
                frames_before = service.pool.dispatched_frames
                started = time.perf_counter()
                hit = service.submit(queries[0])
                hit_result = hit.result(timeout=600)
                hit_s = time.perf_counter() - started
                if not hit.cached:
                    failures.append(
                        f"{backend}: resubmitted query missed the cache"
                    )
                if service.pool.dispatched_frames != frames_before:
                    failures.append(
                        f"{backend}: cache hit dispatched "
                        f"{service.pool.dispatched_frames - frames_before}"
                        f" frames to the pool"
                    )
                if hit_result.embeddings != expected[0]:
                    failures.append(
                        f"{backend}: cached count "
                        f"{hit_result.embeddings} != {expected[0]}"
                    )
            finally:
                service.close()
        finally:
            engine.close()

        rows.append(
            {
                "backend": backend,
                "solo_seconds": round(solo_s, 6),
                "concurrent_seconds": round(concurrent_s, 6),
                "throughput_qps": round(
                    len(queries) / max(concurrent_s, 1e-12), 3
                ),
                "speedup_vs_solo": round(
                    solo_s / max(concurrent_s, 1e-12), 3
                ),
                "cache_hit_seconds": round(hit_s, 6),
                "counts": counts,
            }
        )

    return {
        "benchmark": "service",
        "workload": {
            "dataset": dataset,
            "queries": len(queries),
        },
        "num_shards": NUM_SHARDS,
        "queue_depth": QUEUE_DEPTH,
        "cores": usable_cores(),
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


def test_multiplexed_counts_bit_identical(summary):
    """Concurrent multiplexed queries must not change a single count on
    any index backend, and cache hits must bypass the pool entirely."""
    assert summary["failures"] == []


def test_every_backend_served_the_workload(summary):
    assert [row["backend"] for row in summary["rows"]] == list(BACKENDS)
    for row in summary["rows"]:
        assert row["concurrent_seconds"] > 0
        assert row["cache_hit_seconds"] >= 0


def main() -> int:
    result = run_benchmark()
    path = write_summary(result)
    for row in result["rows"]:
        print(
            f"{row['backend']}: solo={row['solo_seconds']:.4f}s "
            f"concurrent={row['concurrent_seconds']:.4f}s "
            f"({row['throughput_qps']:.2f} q/s, "
            f"x{row['speedup_vs_solo']:.2f} vs solo) "
            f"cache_hit={row['cache_hit_seconds'] * 1e3:.2f}ms"
        )
    status = "OK" if not result["failures"] else "FAIL"
    print(f"cores={result['cores']} {status} -> {path}")
    for failure in result["failures"]:
        print(f"  {failure}")
    return 0 if not result["failures"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
