"""Benchmark: socket-sharded execution (the full network path).

Runs the Fig. 8 trace (the same HB/SB × q2/q3/q6 workload as
``bench_index_backends`` and ``bench_sharding``) through the socket
executor — local loopback clusters spawned by
:func:`repro.parallel.spawn_local_cluster`, i.e. real TCP connections,
framing and versioned candidate payloads — and gates the subsystem:

* **parity** — ``count``/``count_bfs`` with ``executor="sockets"`` must
  be bit-identical to the sequential engine and the threaded executor
  for all three index backends, and the balanced shard placement
  must return the same counts as uniform over the whole trace (always
  enforced);
* **payload** — the candidate bytes crossing the sockets must be the
  backend's mask representation: on the identical trace the
  bitset/adaptive payload totals must stay at or below the merge
  backend's edge-id tuple payloads (always enforced; mirrors the
  ``BENCH_sharding.json`` ratio, one version byte per payload added on
  both sides of the comparison).

Wall-clock against threads is *recorded* but not gated here
(``bench_sharding`` owns the speedup gate, and ``executor="processes"``
is this same coordinator over the same kind of local cluster).  The
JSON captures the ratio so multi-core CI trends are visible.

Results land in ``BENCH_net.json`` at the repo root.  Run standalone
(``python benchmarks/bench_net.py``) or via pytest; the pytest entry
points are the gates.
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
from repro.parallel import NetShardExecutor, ThreadedExecutor

REPEATS = 2

BACKENDS = ("merge", "bitset", "adaptive")
MASK_BACKENDS = ("bitset", "adaptive")
NUM_SHARDS = 4

RESULT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_net.json",
)


def run_benchmark() -> dict:
    """Verify and time the socket executor; returns the JSON summary."""
    queries = fig8_queries()
    engines: Dict[str, Dict[str, HGMatch]] = {
        dataset: {
            backend: make_engine(load_dataset(dataset), index_backend=backend)
            for backend in BACKENDS
        }
        for dataset in DATASETS
    }
    reference = [
        engines[dataset][BACKENDS[0]].count(query)
        for dataset, query in queries
    ]

    rows = []
    parity_failures: List[str] = []
    for backend in BACKENDS:
        net_executors: Dict[str, NetShardExecutor] = {}
        net_balanced: Dict[str, NetShardExecutor] = {}
        try:
            # Offline stage: spawn the socket clusters and warm them
            # (first run builds each shard).
            for dataset in DATASETS:
                net = NetShardExecutor(
                    num_shards=NUM_SHARDS, index_backend=backend
                )
                net_executors[dataset] = net
                net.run(engines[dataset][backend], queries[0][1])
                net_b = NetShardExecutor(
                    num_shards=NUM_SHARDS,
                    index_backend=backend,
                    sharding="balanced",
                )
                net_balanced[dataset] = net_b
                net_b.run(engines[dataset][backend], queries[0][1])

            # Parity: sockets == sequential == threads, via both the
            # raw executor and the engine count_bfs API.
            threaded = ThreadedExecutor(num_workers=NUM_SHARDS)
            payload_bytes = [0] * NUM_SHARDS
            for (dataset, query), expected in zip(queries, reference):
                engine = engines[dataset][backend]
                if engine.count(query) != expected:
                    parity_failures.append(f"{backend}: sequential drifted")
                threads_count = threaded.run(engine, query).embeddings
                if threads_count != expected:
                    parity_failures.append(
                        f"{backend}: threads returned {threads_count}, "
                        f"sequential {expected}"
                    )
                result = net_executors[dataset].run(engine, query)
                if result.embeddings != expected:
                    parity_failures.append(
                        f"{backend}: sockets returned {result.embeddings}, "
                        f"sequential {expected}"
                    )
                balanced_count = net_balanced[dataset].run(
                    engine, query
                ).embeddings
                if balanced_count != expected:
                    parity_failures.append(
                        f"{backend}: balanced sockets returned "
                        f"{balanced_count}, sequential {expected}"
                    )
                for stats in result.worker_stats:
                    payload_bytes[stats.worker_id] += stats.payload_bytes

            # count_bfs through the engine API exercises the plumbing.
            dataset, query = queries[0][0], queries[0][1]
            engine = engines[dataset][backend]
            engine._net_executor = net_executors[dataset]
            if engine.count_bfs(
                query, executor="sockets", shards=NUM_SHARDS
            ) != reference[0]:
                parity_failures.append(f"{backend}: count_bfs diverged")
            engine._net_executor = None  # the benchmark owns its close

            # Timing: best-of-REPEATS full-workload passes.
            threads_s = min(
                _time_pass(
                    lambda: [
                        threaded.run(engines[dataset][backend], query)
                        for dataset, query in queries
                    ]
                )
                for _ in range(REPEATS)
            )
            sockets_s = min(
                _time_pass(
                    lambda: [
                        net_executors[dataset].run(
                            engines[dataset][backend], query
                        )
                        for dataset, query in queries
                    ]
                )
                for _ in range(REPEATS)
            )
        finally:
            for executor in net_executors.values():
                executor.close()
            for executor in net_balanced.values():
                executor.close()

        rows.append(
            {
                "backend": backend,
                "work_model": work_model_label(backend),
                f"threads{NUM_SHARDS}_seconds": round(threads_s, 6),
                f"sockets{NUM_SHARDS}_seconds": round(sockets_s, 6),
                "sockets_vs_threads": round(
                    threads_s / max(sockets_s, 1e-12), 3
                ),
                "payload_bytes_per_shard": payload_bytes,
                "payload_bytes_total": sum(payload_bytes),
            }
        )

    by_backend = {row["backend"]: row for row in rows}
    summary = {
        "benchmark": "net",
        "workload": {
            "datasets": list(DATASETS),
            "settings": list(SETTINGS),
            "queries_per_setting": QUERIES_PER_SETTING,
            "repeats": REPEATS,
            "queries": len(queries),
        },
        "num_shards": NUM_SHARDS,
        "cores": usable_cores(),
        "sharding_modes_checked": ["uniform", "balanced"],
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
    }
    return summary


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


def test_socket_counts_bit_identical(summary):
    """count/count_bfs over sockets == sequential == threads, all
    three index backends, every workload query."""
    assert summary["parity_failures"] == []


@pytest.mark.parametrize("backend", MASK_BACKENDS)
def test_socket_payloads_stay_masks(summary, backend):
    """On the identical trace, the socket payloads of the mask backends
    must stay at or below the merge backend's edge-id tuple payloads —
    proof the wire carries the compressed representation."""
    ratio = summary["mask_payload_vs_tuple_payload"][backend]
    assert 0 < ratio <= 1.0, summary


def main() -> int:
    result = run_benchmark()
    path = write_summary(result)
    for row in result["rows"]:
        print(
            f"{row['backend']}: "
            f"threads{NUM_SHARDS}={row[f'threads{NUM_SHARDS}_seconds']:.4f}s "
            f"sockets{NUM_SHARDS}={row[f'sockets{NUM_SHARDS}_seconds']:.4f}s "
            f"(x{row['sockets_vs_threads']:.2f} vs threads, "
            f"payload={row['payload_bytes_total']}B)"
        )
    ratios = result["mask_payload_vs_tuple_payload"]
    print(
        f"cores={result['cores']} mask/tuple payload ratio: "
        + ", ".join(f"{k}={v:.3f}" for k, v in ratios.items())
        + f" -> {path}"
    )
    ok = not result["parity_failures"] and all(
        0 < ratio <= 1.0 for ratio in ratios.values()
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
