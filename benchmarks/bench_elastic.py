"""Benchmark: elastic pool reconfiguration under live jobs.

The acceptance gate for the elastic cluster runtime.  A Fig. 8
workload slice runs against pools whose membership changes mid-
lifetime, and every reconfiguration must be invisible in the counts:

* **grow parity** — a pool grown from two members to four via
  ``admit`` (and then drained back down to the admitted newcomers)
  must produce counts bit-identical to the static run on all three
  index backends;
* **readmit parity** — a pool that *lost* a member (killed process),
  served degraded, and folded a respawned worker back in with
  ``admit`` must also match exactly;
* **supervised restart** — a supervised worker killed out from under
  the pool is restarted by :class:`WorkerSupervisor` within the retry
  budget, and the restarted pool serves bit-identical counts;
* **heartbeat failover** — a worker severed-but-connected (SIGSTOP:
  the TCP connection stays up, heartbeats stop) is evicted by the
  registry and the coordinator fails the job over to the live member
  well before its I/O timeout — the job never wedges.

Reconfiguration wall-clock (admit, drain, restart, eviction-to-
completion) is *recorded* for trend-watching, not gated — on shared CI
hosts those costs are noise-dominated.

Results land in ``BENCH_elastic.json`` at the repo root.  Run
standalone (``python benchmarks/bench_elastic.py``) or via pytest; the
pytest entry points are the gates.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from typing import List

from repro.bench import (
    FIG8_DATASETS,
    fig8_queries,
    make_engine,
    usable_cores,
)
from repro.datasets import load_dataset
from repro.parallel import (
    ShardPool,
    ShardWorker,
    WorkerRegistry,
    WorkerSupervisor,
    spawn_local_cluster,
)
from repro.parallel.tasks import RetryPolicy

BACKENDS = ("merge", "bitset", "adaptive")
NUM_SHARDS = 2
NUM_QUERIES = 3
IO_TIMEOUT = 60.0
HEARTBEAT = 0.1
MISS_BUDGET = 3
#: Eviction-driven failover must beat the I/O deadline by a wide
#: margin — the whole point of heartbeats is not waiting it out.
FAILOVER_BUDGET = IO_TIMEOUT / 2
#: Supervisor restart must land within the (jittered) retry schedule.
RESTART_RETRY = RetryPolicy(attempts=3, base_delay=0.1, max_delay=0.5)
RESTART_BUDGET_S = 20.0

RESULT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_elastic.json",
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


def _spare_worker(data, shard_id, backend):
    """Boot one in-thread worker named ``shard_id``: the newcomer to
    admit."""
    worker = ShardWorker(data, shard_id, index_backend=backend)
    address = worker.bind()
    thread = threading.Thread(
        target=worker.serve_forever, kwargs={"max_sessions": 1},
        daemon=True,
    )
    thread.start()
    return worker, address


def _bench_grow(engine, backend, queries, expected, failures):
    """Two-member pool -> run -> admit newcomers -> four-member parity
    -> drain the original members -> newcomers-only parity."""
    cluster = spawn_local_cluster(
        engine.data, NUM_SHARDS, index_backend=backend
    )
    spares = []
    row = {}
    try:
        executor = ShardPool(
            addresses=list(cluster.addresses), index_backend=backend,
            io_timeout=IO_TIMEOUT,
        )
        try:
            started = time.perf_counter()
            static_counts = _run_all(executor, engine, queries)
            row["static_seconds"] = time.perf_counter() - started
            if static_counts != expected:
                failures.append(
                    f"{backend}: static pool returned "
                    f"{static_counts}, sequential {expected}"
                )
            started = time.perf_counter()
            for shard_id in range(NUM_SHARDS, 2 * NUM_SHARDS):
                worker, address = _spare_worker(
                    engine.data, shard_id, backend
                )
                spares.append(worker)
                executor.admit(address)
            row["admit_seconds"] = time.perf_counter() - started
            if len(executor._members) != 2 * NUM_SHARDS:
                failures.append(
                    f"{backend}: admit did not grow the pool to "
                    f"{2 * NUM_SHARDS} members"
                )
            started = time.perf_counter()
            grown_counts = _run_all(executor, engine, queries)
            row["grown_seconds"] = time.perf_counter() - started
            if grown_counts != expected:
                failures.append(
                    f"{backend}: grown pool returned "
                    f"{grown_counts}, sequential {expected}"
                )
            # The admitted newcomers must be real members: drop the
            # originals and let the newcomers carry everything.
            started = time.perf_counter()
            for shard_id in range(NUM_SHARDS):
                executor.drain(shard_id)
            row["drain_seconds"] = time.perf_counter() - started
            drained_counts = _run_all(executor, engine, queries)
            if drained_counts != expected:
                failures.append(
                    f"{backend}: spares-only pool returned "
                    f"{drained_counts}, sequential {expected}"
                )
        finally:
            executor.close()
    finally:
        for worker in spares:
            worker.close()
        cluster.close()
    return row


def _bench_readmit(engine, backend, queries, expected, failures):
    """Four-member pool -> kill a member -> degraded parity -> respawn
    and ``admit`` it back -> restored parity."""
    cluster = spawn_local_cluster(
        engine.data, 2 * NUM_SHARDS, index_backend=backend
    )
    row = {}
    try:
        executor = ShardPool(
            addresses=list(cluster.addresses),
            index_backend=backend, io_timeout=IO_TIMEOUT,
        )
        try:
            if _run_all(executor, engine, queries) != expected:
                failures.append(
                    f"{backend}: four-member pool failed parity before "
                    f"the kill"
                )
            cluster.kill_member(0)
            executor.drain(0)
            degraded_counts = _run_all(executor, engine, queries)
            if degraded_counts != expected:
                failures.append(
                    f"{backend}: degraded pool returned "
                    f"{degraded_counts}, sequential {expected}"
                )
            started = time.perf_counter()
            address = cluster.respawn(0)
            executor.admit(address)
            row["readmit_seconds"] = time.perf_counter() - started
            readmitted_counts = _run_all(executor, engine, queries)
            if readmitted_counts != expected:
                failures.append(
                    f"{backend}: readmitted pool returned "
                    f"{readmitted_counts}, sequential {expected}"
                )
        finally:
            executor.close()
    finally:
        cluster.close()
    return row


def _bench_supervised_restart(engine, queries, expected, failures):
    """Kill a supervised worker; the supervisor must bring it back
    within the retry budget and the pool must keep exact counts."""
    backend = "bitset"
    row = {"backend": backend}
    supervisor = WorkerSupervisor(
        engine.data, NUM_SHARDS, index_backend=backend,
        retry=RESTART_RETRY,
    )
    with supervisor:
        supervisor.cluster.kill_member(0)
        started = time.perf_counter()
        deadline = started + RESTART_BUDGET_S
        restarts = 0
        while restarts == 0 and time.monotonic() < deadline:
            restarts = supervisor.poll()
            time.sleep(0.02)
        row["restart_seconds"] = time.perf_counter() - started
        if restarts == 0:
            failures.append(
                f"supervisor did not restart the killed worker within "
                f"{RESTART_BUDGET_S}s"
            )
            return row
        executor = ShardPool(
            addresses=supervisor.addresses, index_backend=backend,
            io_timeout=IO_TIMEOUT,
        )
        try:
            restarted_counts = _run_all(executor, engine, queries)
        finally:
            executor.close()
    if restarted_counts != expected:
        failures.append(
            f"restarted supervised pool returned {restarted_counts}, "
            f"sequential {expected}"
        )
    return row


def _bench_heartbeat_failover(engine, queries, expected, failures):
    """SIGSTOP a member (connection up, heartbeats stop): the
    registry evicts it and the job fails over long before the I/O
    timeout."""
    backend = "bitset"
    row = {"backend": backend}
    with WorkerRegistry(
        heartbeat_interval=HEARTBEAT, miss_budget=MISS_BUDGET
    ) as registry:
        cluster = spawn_local_cluster(
            engine.data, 2, index_backend=backend,
            announce=registry.address, heartbeat_interval=HEARTBEAT,
        )
        stopped_pid = None
        try:
            executor = ShardPool.from_registry(
                registry, 2, index_backend=backend,
                io_timeout=IO_TIMEOUT, wait_timeout=30.0,
            )
            try:
                if executor.run(engine, queries[0]).embeddings != expected[0]:
                    failures.append(
                        "registry-composed pool failed parity before "
                        "the sever"
                    )
                # Freeze member 0: its TCP connection stays ESTABLISHED
                # but every thread (heartbeats included) stops.  Only
                # the registry's eviction can reveal it.
                stopped_pid = cluster.processes[0].pid
                os.kill(stopped_pid, signal.SIGSTOP)
                started = time.perf_counter()
                severed_counts = _run_all(executor, engine, queries)
                row["failover_seconds"] = time.perf_counter() - started
                if severed_counts != expected:
                    failures.append(
                        f"post-sever pool returned {severed_counts}, "
                        f"sequential {expected}"
                    )
                if row["failover_seconds"] > FAILOVER_BUDGET:
                    failures.append(
                        f"eviction failover took "
                        f"{row['failover_seconds']:.1f}s (budget "
                        f"{FAILOVER_BUDGET:.1f}s) — the job wedged on "
                        f"the severed worker"
                    )
                if executor._member(0) is not None:
                    failures.append(
                        "severed member is still in the pool after "
                        "eviction"
                    )
            finally:
                executor.close()
        finally:
            if stopped_pid is not None:
                try:
                    os.kill(stopped_pid, signal.SIGCONT)
                except OSError:
                    pass
            cluster.close()
    return row


def run_benchmark() -> dict:
    """Reconfigure pools under live jobs and verify exact counts;
    returns the JSON summary."""
    dataset, queries = _workload()
    failures: List[str] = []
    rows = []
    for backend in BACKENDS:
        engine = make_engine(load_dataset(dataset), index_backend=backend)
        try:
            expected = [engine.count(query) for query in queries]
            row = {"backend": backend, "counts": expected}
            row.update(
                _bench_grow(engine, backend, queries, expected, failures)
            )
            row.update(
                _bench_readmit(
                    engine, backend, queries, expected, failures
                )
            )
            rows.append(
                {
                    key: (
                        round(value, 6)
                        if isinstance(value, float)
                        else value
                    )
                    for key, value in row.items()
                }
            )
        finally:
            engine.close()

    engine = make_engine(load_dataset(dataset), index_backend="bitset")
    try:
        expected = [engine.count(query) for query in queries]
        supervisor_row = _bench_supervised_restart(
            engine, queries, expected, failures
        )
        failover_row = _bench_heartbeat_failover(
            engine, queries, expected, failures
        )
    finally:
        engine.close()

    return {
        "benchmark": "elastic",
        "workload": {
            "dataset": dataset,
            "queries": len(queries),
        },
        "num_shards": NUM_SHARDS,
        "io_timeout_seconds": IO_TIMEOUT,
        "heartbeat_interval_seconds": HEARTBEAT,
        "miss_budget": MISS_BUDGET,
        "cores": usable_cores(),
        "failures": failures,
        "rows": rows,
        "supervised_restart": {
            key: round(value, 6) if isinstance(value, float) else value
            for key, value in supervisor_row.items()
        },
        "heartbeat_failover": {
            key: round(value, 6) if isinstance(value, float) else value
            for key, value in failover_row.items()
        },
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


def test_elastic_reconfiguration_keeps_counts_bit_identical(summary):
    """Grown, drained, readmitted, restarted and eviction-failed-over
    pools must all match the sequential counts exactly, and neither
    restart nor failover may blow its time budget."""
    assert summary["failures"] == []


def test_every_backend_ran_every_reconfiguration(summary):
    assert [row["backend"] for row in summary["rows"]] == list(BACKENDS)
    for row in summary["rows"]:
        assert row["grown_seconds"] > 0
        assert row["readmit_seconds"] > 0
    assert summary["supervised_restart"]["restart_seconds"] > 0
    assert summary["heartbeat_failover"]["failover_seconds"] > 0


def main() -> int:
    result = run_benchmark()
    path = write_summary(result)
    for row in result["rows"]:
        print(
            f"{row['backend']}: static={row['static_seconds']:.4f}s "
            f"grown={row['grown_seconds']:.4f}s "
            f"admit={row['admit_seconds']:.4f}s "
            f"readmit={row['readmit_seconds']:.4f}s"
        )
    print(
        f"supervised restart: "
        f"{result['supervised_restart']['restart_seconds']:.4f}s; "
        f"heartbeat failover: "
        f"{result['heartbeat_failover']['failover_seconds']:.4f}s"
    )
    status = "OK" if not result["failures"] else "FAIL"
    print(f"cores={result['cores']} {status} -> {path}")
    for failure in result["failures"]:
        print(f"  {failure}")
    return 0 if not result["failures"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
