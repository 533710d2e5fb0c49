"""Benchmark: process-sharded execution over the mask-native seam.

Runs the Fig. 8 trace (the same HB/SB × q2/q3/q6 workload as
``bench_index_backends``) through three execution engines and gates the
sharded subsystem:

* **parity** — the pool's results, under both job shapes (subtree
  jobs, ``ShardPool.run``; the level-synchronous protocol,
  ``run_bfs``), must be bit-identical to the sequential engine for all
  three index backends × both shard placements (uniform and balanced)
  (always enforced);
* **payload** — the bytes crossing the process boundaries under the
  level-synchronous protocol must be the backend's *mask*
  representation, not decoded edge-id lists: on the
  identical trace the bitset/adaptive payload totals must undercut the
  merge backend's tuple payloads (always enforced);
* **speed-up** — *recorded, not gated*: per backend, sequential,
  ``count(executor="threads", workers=4)`` and the pool's subtree jobs
  at 4 shards run the same trace, giving ``speedup_vs_sequential`` and
  the like-for-like ``processes_vs_threads`` (the same four root
  parts, with and without the GIL).  At this scale both sit near 1 on
  two cores — a thresholded wall-clock gate belongs to the scale tier
  (ROADMAP items 2 (c) / 3 (d)), where a query outlasts its IPC;
* **skew** — on the skewed trace (one hot signature partition, see
  :func:`repro.bench.skewed_instance`), balanced placement must cut
  the max/mean per-shard CPU-load imbalance by ≥ ``SKEW_GATE``× vs
  uniform under the level-synchronous protocol, with bit-identical
  counts.  CPU load (``WorkerStats.
  cpu_time``) is used rather than wall ``busy_time`` so the gate holds
  on contended single-core hosts too.

The timing protocol measures steady-state serving: the worker pools are
built once (the offline stage, like store building) and every timed
pass replays the full workload; ``REPEATS`` passes, best-of wins.
Results land in ``BENCH_sharding.json`` at the repo root.

Run standalone (``python benchmarks/bench_sharding.py``; pass
``--skew`` to run only the fast skew section, the ``make bench-skew``
smoke) or via pytest (``pytest benchmarks/bench_sharding.py``); the
pytest entry points are the gates.
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
    SKEW_NUM_SHARDS,
    SKEW_PARTITIONS,
    fig8_queries,
    make_engine,
    skewed_instance,
    time_pass as _time_pass,
    usable_cores,
    work_model_label,
)
from repro.datasets import load_dataset
from repro.parallel import ShardPool, worker_loads

REPEATS = 3

BACKENDS = ("merge", "bitset", "adaptive")
#: The seam's backends: payloads are row masks / chunk maps.
MASK_BACKENDS = ("bitset", "adaptive")
NUM_SHARDS = 4
#: Balanced placement must divide the skewed trace's load imbalance by
#: at least this factor.
SKEW_GATE = 1.3
#: Workload replays the skew trace this many times per mode so the
#: per-shard CPU totals dominate timer noise.
SKEW_PASSES = 40


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
        executors: Dict[str, ShardPool] = {}
        balanced: Dict[str, ShardPool] = {}
        try:
            # Offline stage: build the shard pools and warm them (the
            # first run builds each worker's store shard).
            for dataset in DATASETS:
                for mode, pools in (
                    ("uniform", executors), ("balanced", balanced)
                ):
                    pools[dataset] = ShardPool(
                        num_shards=NUM_SHARDS,
                        index_backend=backend,
                        sharding=mode,
                    )
                    pools[dataset].run(
                        engines[dataset][backend], queries[0][1]
                    )

            # Parity: sharded count/count_bfs == sequential, per query,
            # for both placements.
            payload_bytes = [0] * NUM_SHARDS
            for (dataset, query), expected in zip(queries, reference):
                engine = engines[dataset][backend]
                if engine.count(query) != expected:
                    parity_failures.append(f"{backend}: sequential drifted")
                # Placement and payloads are the level-synchronous
                # protocol's; a subtree job (what the timing below
                # runs) ships no candidate payload and reads no range.
                result = executors[dataset].run_bfs(engine, query)
                if result.embeddings != expected:
                    parity_failures.append(
                        f"{backend}: processes returned {result.embeddings}, "
                        f"sequential {expected}"
                    )
                if balanced[dataset].run_bfs(engine, query).embeddings != expected:
                    parity_failures.append(
                        f"{backend}: balanced placement diverged"
                    )
                if executors[dataset].run(engine, query).embeddings != expected:
                    parity_failures.append(
                        f"{backend}: subtree job diverged"
                    )
                if engine.count_bfs(query) != expected:
                    parity_failures.append(f"{backend}: count_bfs diverged")
                for stats in result.worker_stats:
                    payload_bytes[stats.worker_id] += stats.payload_bytes

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
                        executors[dataset].run(
                            engines[dataset][backend], query
                        )
                        for dataset, query in queries
                    ]
                )
                for _ in range(REPEATS)
            )
        finally:
            for executor in (*executors.values(), *balanced.values()):
                executor.close()

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
                "payload_bytes_per_shard": payload_bytes,
                "payload_bytes_total": sum(payload_bytes),
            }
        )

    by_backend = {row["backend"]: row for row in rows}
    summary = {
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
        "mask_payload_vs_tuple_payload": {
            backend: round(
                by_backend[backend]["payload_bytes_total"]
                / max(by_backend["merge"]["payload_bytes_total"], 1),
                3,
            )
            for backend in MASK_BACKENDS
        },
        "skew": run_skew_benchmark(),
    }
    return summary


def run_skew_benchmark() -> dict:
    """The skewed trace: per-shard CPU-load imbalance, uniform vs
    balanced placement, plus count parity across the two placements."""
    data, skew_queries = skewed_instance()
    reference_engine = HGMatch(data, index_backend="bitset")
    expected = [reference_engine.count(query) for query in skew_queries]
    modes = {}
    parity_failures: List[str] = []
    for mode in ("uniform", "balanced"):
        engine = HGMatch(data, index_backend="bitset")
        executor = ShardPool(
            num_shards=SKEW_NUM_SHARDS, index_backend="bitset", sharding=mode
        )
        try:
            executor.run_bfs(engine, skew_queries[0])  # warm the pool
            loads = [0.0] * SKEW_NUM_SHARDS
            for _ in range(SKEW_PASSES):
                for query, count in zip(skew_queries, expected):
                    # Per-range load: the level-synchronous protocol.
                    result = executor.run_bfs(engine, query)
                    if result.embeddings != count:
                        parity_failures.append(
                            f"skew {mode}: returned {result.embeddings}, "
                            f"sequential {count}"
                        )
                    for shard_id, load in enumerate(
                        worker_loads(result.worker_stats)
                    ):
                        loads[shard_id] += load
            mean = sum(loads) / len(loads)
            modes[mode] = {
                "cpu_seconds_per_shard": [round(l, 6) for l in loads],
                "imbalance": round(max(loads) / max(mean, 1e-12), 4),
            }
        finally:
            executor.close()
    improvement = modes["uniform"]["imbalance"] / max(
        modes["balanced"]["imbalance"], 1e-12
    )
    return {
        "partitions": [list(partition) for partition in SKEW_PARTITIONS],
        "num_shards": SKEW_NUM_SHARDS,
        "passes": SKEW_PASSES,
        "counts": expected,
        "parity_failures": parity_failures,
        "uniform": modes["uniform"],
        "balanced": modes["balanced"],
        "imbalance_improvement": round(improvement, 3),
        "gate": SKEW_GATE,
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


def test_sharded_counts_bit_identical(summary):
    """count/count_bfs parity against the sequential engine, all three
    index backends, uniform and balanced placement, every workload
    query."""
    assert summary["parity_failures"] == []


@pytest.mark.parametrize("backend", MASK_BACKENDS)
def test_masks_cross_the_boundary(summary, backend):
    """On the identical trace, mask payloads must undercut the edge-id
    tuple payloads the merge backend ships — proof the boundary carries
    the compressed representation, not decoded lists."""
    ratio = summary["mask_payload_vs_tuple_payload"][backend]
    assert 0 < ratio < 1.0, summary


def test_skew_counts_bit_identical(summary):
    assert summary["skew"]["parity_failures"] == []


def test_balanced_beats_uniform_on_skewed_trace(summary):
    """Balanced placement must cut the skewed trace's per-shard load
    imbalance by ≥ SKEW_GATE× (gated on all hosts: the metric is CPU
    time, which contention cannot fake)."""
    skew = summary["skew"]
    assert skew["imbalance_improvement"] >= SKEW_GATE, skew


def _print_skew(skew: dict) -> None:
    print(
        f"skew: uniform imbalance x{skew['uniform']['imbalance']:.2f} "
        f"-> balanced x{skew['balanced']['imbalance']:.2f} "
        f"(improvement x{skew['imbalance_improvement']:.2f}, "
        f"gate x{skew['gate']:.1f}, counts {skew['counts']})"
    )


def _skew_ok(skew: dict) -> bool:
    return (
        not skew["parity_failures"]
        and skew["imbalance_improvement"] >= SKEW_GATE
    )


def main(argv=None) -> int:
    import sys

    argv = sys.argv[1:] if argv is None else argv
    if "--skew" in argv:
        # The fast smoke (`make bench-skew`): only the skewed trace.
        # Merge into the existing JSON so the full benchmark's numbers
        # survive the partial run.
        skew = run_skew_benchmark()
        result = {}
        if os.path.exists(RESULT_PATH):
            with open(RESULT_PATH, "r", encoding="utf-8") as stream:
                result = json.load(stream)
        result["skew"] = skew
        path = write_summary(result)
        _print_skew(skew)
        print(f"-> {path}")
        return 0 if _skew_ok(skew) else 1
    result = run_benchmark()
    path = write_summary(result)
    for row in result["rows"]:
        print(
            f"{row['backend']}: seq={row['sequential_seconds']:.4f}s "
            f"threads{NUM_SHARDS}={row[f'threads{NUM_SHARDS}_seconds']:.4f}s "
            f"processes{NUM_SHARDS}={row[f'processes{NUM_SHARDS}_seconds']:.4f}s "
            f"(x{row['speedup_vs_sequential']:.2f} vs sequential, "
            f"x{row['processes_vs_threads']:.2f} vs threads, "
            f"payload={row['payload_bytes_total']}B "
            f"{row['payload_bytes_per_shard']})"
        )
    _print_skew(result["skew"])
    print(f"cores={result['cores']} -> {path}")
    # Mirror the pytest gates for CI's script-mode run.
    ok = not result["parity_failures"] and all(
        0 < ratio < 1.0
        for ratio in result["mask_payload_vs_tuple_payload"].values()
    )
    return 0 if ok and _skew_ok(result["skew"]) else 1


if __name__ == "__main__":
    raise SystemExit(main())
