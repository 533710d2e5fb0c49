"""The threaded parallel executor: task scheduler + dynamic work stealing.

This is the real-threads implementation of HGMatch's execution engine
(Section VI).  Each worker owns a :class:`WorkStealingDeque`; newly
spawned tasks go to the owner's head (LIFO), idle workers steal half a
random victim's tasks from the tail.  Termination uses a global count of
outstanding tasks: a task is retired only after its children are
enqueued, so the count reaching zero means the whole task tree is done.

Under CPython the GIL serialises the set-operation inner loops, so this
executor demonstrates *correctness* (parallel counts equal sequential
counts), bounded memory, and load-balance accounting — while the
wall-clock scalability experiments (Exp-4/Exp-6) run on the
discrete-event :mod:`repro.parallel.simulation` over the same task
semantics.  See DESIGN.md, substitution 2.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..core.candidates import VertexStepState
from ..core.counters import WORK_UNIT_MODELS, MatchCounters
from ..core.engine import HGMatch
from ..errors import SchedulerError, TimeoutExceeded
from ..hypergraph import Hypergraph
from .deque import WorkStealingDeque
from .tasks import ROOT_TASK, PartialEmbedding, WorkerStats, default_seed, load_imbalance


@dataclass
class ParallelResult:
    """Outcome of one parallel matching job."""

    embeddings: int
    elapsed: float
    counters: MatchCounters
    worker_stats: List[WorkerStats] = field(default_factory=list)

    def load_imbalance(self) -> float:
        """Max/mean per-worker load (1.0 = perfect balance): CPU time
        where the workers record it, else busy time — the one number
        the rebalancer and the skew gate act on as well."""
        return load_imbalance(self.worker_stats)


class _SharedState:
    """State shared by all workers of one job."""

    def __init__(self, num_workers: int) -> None:
        self.deques: List[WorkStealingDeque] = [
            WorkStealingDeque() for _ in range(num_workers)
        ]
        self.outstanding = 0
        self.outstanding_lock = threading.Lock()
        self.cancelled = threading.Event()
        self.failure: Optional[BaseException] = None

    def add_outstanding(self, count: int) -> None:
        with self.outstanding_lock:
            self.outstanding += count

    def retire(self) -> int:
        with self.outstanding_lock:
            self.outstanding -= 1
            return self.outstanding


class ThreadedExecutor:
    """Run a matching job on ``num_workers`` real threads.

    Parameters
    ----------
    num_workers:
        Thread-pool size ``p``.
    steal_mode:
        ``"half"`` (paper behaviour) or ``"one"`` (ablation) — how many
        tasks a thief takes per successful steal.
    stealing:
        Set False to disable work stealing entirely; workers then only
        process the initial static share they were assigned
        ("HGMatch-NOSTL" in Exp-6).
    seed:
        Seed for victim selection, making runs reproducible.  ``None``
        (the default) resolves to the ``REPRO_SEED`` environment
        variable (falling back to 0) via
        :func:`repro.parallel.tasks.default_seed`; each job derives its
        per-worker RNGs from this value alone, never from the
        process-global :mod:`random` state.
    """

    def __init__(
        self,
        num_workers: int,
        steal_mode: str = "half",
        stealing: bool = True,
        seed: "int | None" = None,
    ) -> None:
        if num_workers < 1:
            raise SchedulerError("num_workers must be >= 1")
        if steal_mode not in ("half", "one"):
            raise SchedulerError(f"unknown steal mode {steal_mode!r}")
        self.num_workers = num_workers
        self.steal_mode = steal_mode
        self.stealing = stealing
        self.seed = default_seed() if seed is None else seed

    def run(
        self,
        engine: HGMatch,
        query: Hypergraph,
        order: "Sequence[int] | None" = None,
        time_budget: "float | None" = None,
    ) -> ParallelResult:
        """Execute the job; returns counts plus per-worker statistics."""
        plan = engine.plan(query, order)
        num_steps = plan.num_steps
        state = _SharedState(self.num_workers)

        # Static initial distribution: expand the root (SCAN) inline and
        # deal the first-level tasks round-robin across workers — the
        # coarse-grained baseline that stealing then refines.
        root_counters = MatchCounters()
        first_level = engine.expand(plan, ROOT_TASK, root_counters)
        root_counters.tasks += 1
        completed_at_root = 0
        if num_steps == 1:
            completed_at_root = len(first_level)
            first_level = []
        for position, task in enumerate(first_level):
            state.deques[position % self.num_workers].push(task)
        state.add_outstanding(len(first_level))

        deadline = None if time_budget is None else time.monotonic() + time_budget
        stats = [WorkerStats(worker_id=i) for i in range(self.num_workers)]
        counters = [MatchCounters() for _ in range(self.num_workers)]
        threads = [
            threading.Thread(
                target=self._worker_loop,
                args=(
                    worker_id,
                    engine,
                    plan,
                    state,
                    stats[worker_id],
                    counters[worker_id],
                    deadline,
                ),
                daemon=True,
            )
            for worker_id in range(self.num_workers)
        ]
        started = time.monotonic()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.monotonic() - started

        if state.failure is not None:
            raise state.failure
        if state.cancelled.is_set() and deadline is not None:
            raise TimeoutExceeded(elapsed, time_budget)

        merged = root_counters
        merged.embeddings += completed_at_root
        total_embeddings = completed_at_root
        for worker_id in range(self.num_workers):
            merged.merge(counters[worker_id])
            total_embeddings += stats[worker_id].embeddings
            stats[worker_id].peak_queue = state.deques[worker_id].peak_size
        merged.embeddings = total_embeddings
        merged.peak_retained = sum(dq.peak_size for dq in state.deques)
        return ParallelResult(
            embeddings=total_embeddings,
            elapsed=elapsed,
            counters=merged,
            worker_stats=stats,
        )

    # ------------------------------------------------------------------
    def _worker_loop(
        self,
        worker_id: int,
        engine: HGMatch,
        plan,
        state: _SharedState,
        stats: WorkerStats,
        counters: MatchCounters,
        deadline: "float | None",
    ) -> None:
        # Per-job, per-worker RNG derived from the executor seed alone:
        # steal decisions never consult the process-global random state.
        rng = random.Random(self.seed * 7919 + worker_id)
        own = state.deques[worker_id]
        num_steps = plan.num_steps
        # Tasks stay self-contained edge-id tuples (cheap to steal, the
        # Theorem VI.1 memory bound holds); the worker merely caches one
        # push/pop-delta vertex_step_map and re-points it at each task.
        expansion_state = VertexStepState(engine.data)
        step_masks = expansion_state.step_masks
        counters.note_work_model(WORK_UNIT_MODELS.get(engine.index_backend, ""))
        try:
            while not state.cancelled.is_set():
                task = own.pop()
                if task is None:
                    if not self.stealing:
                        if self._job_done(state):
                            return
                        # Without stealing a worker with an empty queue can
                        # only wait for the job to finish.
                        time.sleep(0.0005)
                        continue
                    task = self._try_steal(worker_id, state, stats, rng)
                    if task is None:
                        if self._job_done(state):
                            return
                        time.sleep(0.0001)
                        continue
                if deadline is not None and time.monotonic() > deadline:
                    state.cancelled.set()
                    return
                started = time.perf_counter()
                children = engine.expand(
                    plan, task, counters, vmap=expansion_state.advance(task),
                    step_masks=step_masks,
                )
                spawned: List[PartialEmbedding] = []
                for child in children:
                    if len(child) == num_steps:
                        stats.embeddings += 1
                    else:
                        spawned.append(child)
                if spawned:
                    state.add_outstanding(len(spawned))
                    own.push_many(spawned)
                stats.tasks_executed += 1
                stats.busy_time += time.perf_counter() - started
                counters.tasks += 1
                state.retire()
        except BaseException as exc:  # propagate to the caller thread
            state.failure = exc
            state.cancelled.set()

    def _try_steal(
        self,
        worker_id: int,
        state: _SharedState,
        stats: WorkerStats,
        rng: random.Random,
    ) -> Optional[PartialEmbedding]:
        """Attempt one steal from a random non-empty victim."""
        victims = [
            vid
            for vid in range(self.num_workers)
            if vid != worker_id and state.deques[vid].snapshot_size() > 0
        ]
        if not victims:
            return None
        victim = rng.choice(victims)
        stats.steal_attempts += 1
        if self.steal_mode == "half":
            stolen = state.deques[victim].steal_half()
        else:
            single = state.deques[victim].steal_one()
            stolen = [single] if single is not None else []
        if not stolen:
            return None
        stats.steals_succeeded += 1
        stats.tasks_stolen += len(stolen)
        own = state.deques[worker_id]
        # Keep one task to run now; repatriate the rest onto our deque.
        task = stolen[-1]
        for item in stolen[:-1]:
            own.push(item)
        return task

    @staticmethod
    def _job_done(state: _SharedState) -> bool:
        with state.outstanding_lock:
            return state.outstanding == 0
