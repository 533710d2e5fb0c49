"""Parallel execution: scheduling, scaling and memory (paper §VI).

Runs a heavy query on the AR (Amazon-reviews analogue) dataset through
the execution modes of this reproduction:

* the sequential block-DFS,
* its root parts on a thread pool (``executor="threads"``: the same
  cut the shard pool makes; under the GIL never faster than sequential,
  see "Executors" in docs/ARCHITECTURE.md),
* a localhost *socket cluster* — worker TCP servers spawned on
  loopback ports, each holding the whole graph and answering one
  subtree request per query, i.e. the full multi-host wire path
  (framing, handshake; see docs/WIRE_FORMAT.md) on one machine,
* the discrete-event simulated executor — the paper's work-stealing
  scheduler in virtual time — that reproduces the scalability curve
  with a 20-physical-core NUMA knee and the per-worker steal rows,

and compares task-based scheduling against BFS materialisation for
memory (the Fig. 11 phenomenon).

Run with:  python examples/parallel_scaling.py
"""

from __future__ import annotations

from repro import HGMatch
from repro.bench import workload
from repro.datasets import load_dataset
from repro.parallel import (
    CostModel,
    ShardPool,
    SimulatedExecutor,
    measure_memory,
    simulate_speedups,
    spawn_local_cluster,
)


def main() -> None:
    data = load_dataset("AR")
    engine = HGMatch(data)
    print("Dataset:", data)

    queries = workload("AR", "q3", 6)
    query = max(queries, key=lambda q: engine.count(q, time_budget=5.0))
    expected = engine.count(query)
    print("Heavy q3 query:", query, "->", expected, "embeddings")

    print("\nRoot parts on threads (4 workers):")
    threaded = engine.count(query, executor="threads", workers=4)
    print("  embeddings:", threaded, "(equals sequential:",
          threaded == expected, ")")

    print("\nLocalhost socket cluster (4 workers over TCP):")
    cluster = spawn_local_cluster(data, num_shards=4)
    net = ShardPool(addresses=cluster.addresses)
    try:
        socket_result = net.run(engine, query)
        print("  embeddings:", socket_result.embeddings,
              "(equals threaded:",
              socket_result.embeddings == threaded, ")")
        assert socket_result.embeddings == threaded, (
            "socket cluster diverged from the thread parts"
        )
        print("  embeddings per worker (one subtree request each):",
              [stats.embeddings for stats in socket_result.worker_stats])
        print("  CPU seconds per worker:",
              [round(stats.cpu_time, 4) for stats in socket_result.worker_stats])
        print("  workers:", ", ".join(
            f"{host}:{port}" for host, port in cluster.addresses))
    finally:
        net.close()
        cluster.close()

    print("\nSimulated scalability (Fig. 10 shape, physical cores = 20):")
    rows = simulate_speedups(
        engine, query, [1, 2, 4, 8, 16, 20, 32, 60],
        cost_model=CostModel(physical_cores=20),
    )
    for row in rows:
        bar = "#" * int(round(row["speedup"]))
        print(f"  {row['threads']:>3} threads: speedup {row['speedup']:6.2f}  {bar}")

    print("\nWork stealing vs static assignment (Fig. 12 shape, 8 workers):")
    with_steal = SimulatedExecutor(8, stealing=True).run(engine, query)
    without = SimulatedExecutor(8, stealing=False).run(engine, query)
    print("  stealing on : makespan", round(with_steal.makespan, 1),
          "imbalance", round(with_steal.load_imbalance(), 3))
    print("    per-worker tasks :",
          [stats.tasks_executed for stats in with_steal.worker_stats])
    print("    per-worker steals:",
          [stats.steals_succeeded for stats in with_steal.worker_stats])
    print("  stealing off: makespan", round(without.makespan, 1),
          "imbalance", round(without.load_imbalance(), 3))

    print("\nScheduler memory vs BFS (Fig. 11 shape):")
    task = measure_memory(engine, query, "task")
    bfs = measure_memory(engine, query, "bfs")
    print("  task-based peak:", task.peak_partial_embeddings,
          "partial embeddings")
    print("  BFS peak       :", bfs.peak_partial_embeddings,
          "partial embeddings")


if __name__ == "__main__":
    main()
