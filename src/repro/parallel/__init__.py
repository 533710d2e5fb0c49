"""HGMatch's parallel execution engine (Section VI).

A query is parallelised one way — worker ``p`` of ``n`` runs the
engine's block-DFS below the root candidates ``roots[p::n]``
(:meth:`repro.core.engine.HGMatch.count_part`) — and the executors
differ only in where a part runs: ``executor="threads"`` on a thread
pool inside the engine (nothing of this package), ``"processes"`` in
the shard pool's worker processes.  The paper's own
scheduler lives here once, as a simulation:

* :class:`ShardPool` — the one coordinator: a flat list of
  connections to :class:`ShardWorker` servers, each holding the whole
  graph, speaking framed TCP (:mod:`repro.parallel.transport`, see
  ``docs/WIRE_FORMAT.md``), shared by any number of queries, each a
  :class:`QueryChannel` on it.  The
  workers are its own local pool (:func:`spawn_local_cluster`) or
  servers on other hosts; real multi-core wall clock either way.
  ``executor="processes"`` means
  :meth:`ShardPool.run` — one channel per job — on the engine's one
  pool (:meth:`repro.core.engine.HGMatch.pool`); the match service
  (:mod:`repro.service`) keeps many channels open on that same pool.
* :class:`SimulatedExecutor` — the task scheduler of Section VI-B
  (one LIFO deque per worker, steal-half-from-tail, plus the
  steal-one / no-steal ablations) as a discrete-event simulation in
  virtual time with a set-operation cost model; backs the scalability
  and load-balancing experiments (see "Executors" in
  ``docs/ARCHITECTURE.md`` for why the time is virtual).
"""

from .chaos import ChaosSocket, FaultPlan
from .cluster import LocalCluster, spawn_local_cluster
from .pool import QueryChannel, ShardPool
from .registry import Announcer, WorkerRecord, WorkerRegistry
from .supervisor import SlotStatus, WorkerSupervisor
from .memory import (
    MemoryMeasurement,
    entry_units_per_partial,
    measure_memory,
    theoretical_memory_bound,
)
from .simulation import (
    CostModel,
    SimulatedExecutor,
    SimulationResult,
    simulate_speedups,
)
from .worker import (
    ShardDescriptor,
    ShardWorker,
    default_io_timeout,
    shutdown_worker,
)
from .tasks import (
    ROOT_TASK,
    ParallelResult,
    PartialEmbedding,
    RetryPolicy,
    WorkerStats,
    default_seed,
    join_or_kill,
    load_imbalance,
    worker_loads,
)

__all__ = [
    "ShardPool",
    "QueryChannel",
    "ShardWorker",
    "ShardDescriptor",
    "LocalCluster",
    "spawn_local_cluster",
    "shutdown_worker",
    "RetryPolicy",
    "default_io_timeout",
    "WorkerRegistry",
    "WorkerRecord",
    "Announcer",
    "WorkerSupervisor",
    "SlotStatus",
    "FaultPlan",
    "ChaosSocket",
    "join_or_kill",
    "ParallelResult",
    "default_seed",
    "SimulatedExecutor",
    "SimulationResult",
    "CostModel",
    "simulate_speedups",
    "MemoryMeasurement",
    "measure_memory",
    "entry_units_per_partial",
    "theoretical_memory_bound",
    "WorkerStats",
    "PartialEmbedding",
    "ROOT_TASK",
    "worker_loads",
    "load_imbalance",
]
