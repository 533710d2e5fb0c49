"""HGMatch's parallel execution engine (Section VI).

Three executors share the same task semantics (self-contained partial
embeddings):

* :class:`ThreadedExecutor` — real threads, LIFO deques,
  steal-half-from-tail; demonstrates correctness, bounded memory and
  load-balance accounting under CPython (GIL-serialised).
* :class:`ShardPool` — the one shard coordinator: a grid of
  connections to one :class:`ShardWorker` server per store shard (and
  replica), speaking framed TCP (:mod:`repro.parallel.transport`;
  candidate payloads cross as compact masks in the versioned wire
  format, see ``docs/WIRE_FORMAT.md``), shared by any number of
  level-synchronous queries, each a :class:`QueryChannel` on it.  The
  workers are its own local pool (:func:`spawn_local_cluster`) or
  servers on other hosts; real multi-core wall clock either way.
  ``executor="processes"`` and ``executor="sockets"`` both mean
  :meth:`ShardPool.run` — one channel per job — on the engine's one
  pool (:meth:`repro.core.engine.HGMatch.pool`); the match service
  (:mod:`repro.service`) keeps many channels open on that same pool.
* :class:`SimulatedExecutor` — discrete-event simulation in virtual
  time with a set-operation cost model; backs the scalability and
  load-balancing experiments (see DESIGN.md, substitution 2).
"""

from .chaos import ChaosSocket, FaultPlan
from .deque import WorkStealingDeque
from .executor import ParallelResult, ThreadedExecutor
from .cluster import LocalCluster, spawn_local_cluster
from .pool import QueryChannel, ShardPool
from .handshake import default_retry_policy
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
from .worker import ShardWorker, default_io_timeout, shutdown_worker
from .tasks import (
    ROOT_TASK,
    PartialEmbedding,
    RetryPolicy,
    WorkerStats,
    default_seed,
    join_or_kill,
    load_imbalance,
    task_kind,
    worker_loads,
)

__all__ = [
    "WorkStealingDeque",
    "ThreadedExecutor",
    "ShardPool",
    "QueryChannel",
    "ShardWorker",
    "LocalCluster",
    "spawn_local_cluster",
    "shutdown_worker",
    "RetryPolicy",
    "default_io_timeout",
    "default_retry_policy",
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
    "task_kind",
    "worker_loads",
    "load_imbalance",
]
