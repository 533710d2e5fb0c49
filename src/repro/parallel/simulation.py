"""Discrete-event simulation of the parallel execution engine.

CPython's GIL prevents real threads from showing wall-clock speedup on
the intersection-heavy inner loop (the paper's engine is Rust).  To
reproduce the *scalability* (Exp-4, Fig. 10) and *load balancing*
(Exp-6, Fig. 12) experiments we therefore simulate the scheduler in
virtual time over the exact same task tree:

* every worker owns a LIFO deque (Section VI-B);
* executing a task costs its measured work units (posting entries
  touched by candidate generation plus validation work) — i.e. the cost
  model charges precisely the set-operation work the paper's engine
  performs;
* an idle worker steals half a random victim's tasks from the tail,
  paying a small constant overhead;
* workers past the physical-core count run at reduced efficiency, which
  reproduces the NUMA / hyper-threading knee the paper observes beyond
  20 threads on its 2-socket machine.

The simulation executes each task exactly once (candidates and
validation actually run, results are exact); only *time* is virtual.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..core.counters import MatchCounters
from ..core.engine import HGMatch
from ..errors import SchedulerError
from ..hypergraph import Hypergraph
from .tasks import ROOT_TASK, PartialEmbedding, WorkerStats, default_seed, load_imbalance


@dataclass(frozen=True)
class CostModel:
    """Virtual-time cost model for the simulated executor.

    ``task_overhead`` is the fixed cost of scheduling one task (the paper
    stresses tasks are lightweight, so this is small relative to typical
    expansion work); ``steal_overhead`` is charged per steal attempt;
    workers with id ≥ ``physical_cores`` have their task costs divided by
    ``numa_efficiency`` (< 1), and ids ≥ ``2 × physical_cores`` by
    ``smt_efficiency``, mirroring the paper's 2×20-core, 80-hardware-
    thread host.
    """

    task_overhead: float = 2.0
    steal_overhead: float = 1.0
    physical_cores: int = 20
    numa_efficiency: float = 0.80
    smt_efficiency: float = 0.50

    def efficiency(self, worker_id: int) -> float:
        if worker_id < self.physical_cores:
            return 1.0
        if worker_id < 2 * self.physical_cores:
            return self.numa_efficiency
        return self.smt_efficiency


@dataclass
class SimulationResult:
    """Outcome of one simulated run."""

    embeddings: int
    makespan: float
    counters: MatchCounters
    worker_stats: List[WorkerStats] = field(default_factory=list)
    total_steals: int = 0

    def busy_times(self) -> List[float]:
        return [stats.busy_time for stats in self.worker_stats]

    def load_imbalance(self) -> float:
        """Max/mean per-worker busy time (1.0 = perfect balance; the
        simulation records no CPU time)."""
        return load_imbalance(self.worker_stats)


class SimulatedExecutor:
    """Simulate ``num_workers`` workers over the real task tree.

    The repository's one reproduction of the paper's scheduler:
    ``steal_mode`` (``"half"``, the paper's, or ``"one"``) and
    ``stealing=False`` ("HGMatch-NOSTL") feed the load-balancing
    ablation, ``seed`` (default: ``REPRO_SEED``) picks the victims, a
    :class:`CostModel` prices the tasks.
    """

    def __init__(
        self,
        num_workers: int,
        cost_model: "CostModel | None" = None,
        stealing: bool = True,
        steal_mode: str = "half",
        seed: "int | None" = None,
    ) -> None:
        if num_workers < 1:
            raise SchedulerError("num_workers must be >= 1")
        if steal_mode not in ("half", "one"):
            raise SchedulerError(f"unknown steal mode {steal_mode!r}")
        self.num_workers = num_workers
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.stealing = stealing
        self.steal_mode = steal_mode
        # None resolves to REPRO_SEED (tasks.default_seed); the victim
        # RNG below is seeded per job from this value alone.
        self.seed = default_seed() if seed is None else seed

    def run(
        self,
        engine: HGMatch,
        query: Hypergraph,
        order: "Sequence[int] | None" = None,
    ) -> SimulationResult:
        plan = engine.plan(query, order)
        num_steps = plan.num_steps
        rng = random.Random(self.seed)
        model = self.cost_model

        counters = MatchCounters()
        first_level = engine.expand(plan, ROOT_TASK, counters)
        counters.tasks += 1
        embeddings = 0
        if num_steps == 1:
            embeddings = len(first_level)
            first_level = []

        deques: List[List[PartialEmbedding]] = [[] for _ in range(self.num_workers)]
        for position, task in enumerate(first_level):
            # Round-robin static distribution; head of list = LIFO head.
            deques[position % self.num_workers].append(task)
        clocks = [0.0] * self.num_workers
        stats = [WorkerStats(worker_id=i) for i in range(self.num_workers)]
        total_steals = 0
        outstanding = len(first_level)

        while outstanding > 0:
            # Advance the worker whose virtual clock is smallest and can
            # make progress (has a task or can steal one).
            worker_id = self._next_runnable(deques, clocks)
            if worker_id is None:
                break
            own = deques[worker_id]
            if not own:
                stolen = self._simulate_steal(worker_id, deques, stats, rng)
                clocks[worker_id] += model.steal_overhead / model.efficiency(worker_id)
                if not stolen:
                    continue
                total_steals += 1
                # Fall through: the thief immediately runs one stolen task
                # (otherwise an idle peer would re-steal it — livelock).
            task = own.pop()  # LIFO: most recently pushed
            work_before = counters.work_units
            children = engine.expand(plan, task, counters)
            counters.tasks += 1
            spawned = 0
            for child in children:
                if len(child) == num_steps:
                    embeddings += 1
                    stats[worker_id].embeddings += 1
                else:
                    own.append(child)
                    spawned += 1
            outstanding += spawned - 1
            cost = model.task_overhead + (counters.work_units - work_before)
            cost /= model.efficiency(worker_id)
            clocks[worker_id] += cost
            stats[worker_id].tasks_executed += 1
            stats[worker_id].busy_time += cost
            if len(own) > stats[worker_id].peak_queue:
                stats[worker_id].peak_queue = len(own)

        counters.embeddings = embeddings
        counters.peak_retained = max(
            (stats[i].peak_queue for i in range(self.num_workers)), default=0
        )
        return SimulationResult(
            embeddings=embeddings,
            makespan=max(clocks) if clocks else 0.0,
            counters=counters,
            worker_stats=stats,
            total_steals=total_steals,
        )

    # ------------------------------------------------------------------
    def _next_runnable(
        self, deques: List[List[PartialEmbedding]], clocks: List[float]
    ) -> Optional[int]:
        """Smallest-clock worker that has a task, or can steal one."""
        any_nonempty = any(deques)
        candidates: List[int] = []
        for worker_id in range(self.num_workers):
            if deques[worker_id]:
                candidates.append(worker_id)
            elif self.stealing and any_nonempty:
                candidates.append(worker_id)
        if not candidates:
            return None
        return min(candidates, key=lambda w: (clocks[w], w))

    def _simulate_steal(
        self,
        worker_id: int,
        deques: List[List[PartialEmbedding]],
        stats: List[WorkerStats],
        rng: random.Random,
    ) -> bool:
        victims = [
            vid
            for vid in range(self.num_workers)
            if vid != worker_id and deques[vid]
        ]
        stats[worker_id].steal_attempts += 1
        if not victims:
            return False
        victim = rng.choice(victims)
        queue = deques[victim]
        if self.steal_mode == "half":
            take = max(1, len(queue) // 2)
        else:
            take = 1
        # Steal from the tail: the oldest entries sit at the front of the
        # list (index 0) because owners append/pop at the back.
        stolen = queue[:take]
        del queue[:take]
        deques[worker_id].extend(stolen)
        stats[worker_id].steals_succeeded += 1
        stats[worker_id].tasks_stolen += len(stolen)
        return True


def simulate_speedups(
    engine: HGMatch,
    query: Hypergraph,
    thread_counts: Sequence[int],
    cost_model: "CostModel | None" = None,
    seed: int = 0,
) -> List[dict]:
    """Run the Exp-4 sweep: simulated makespan and speedup per thread count.

    Returns one row per entry of ``thread_counts`` with keys
    ``threads``, ``makespan``, ``speedup`` and ``embeddings``; the
    speedup baseline is the single-worker makespan.
    """
    baseline: "float | None" = None
    rows: List[dict] = []
    for threads in thread_counts:
        executor = SimulatedExecutor(threads, cost_model=cost_model, seed=seed)
        result = executor.run(engine, query)
        if baseline is None:
            solo = (
                result.makespan
                if threads == 1
                else SimulatedExecutor(1, cost_model=cost_model, seed=seed)
                .run(engine, query)
                .makespan
            )
            baseline = solo
        rows.append(
            {
                "threads": threads,
                "makespan": result.makespan,
                "speedup": baseline / result.makespan if result.makespan else 0.0,
                "embeddings": result.embeddings,
            }
        )
    return rows
