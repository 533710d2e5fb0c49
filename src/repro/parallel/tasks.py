"""Tasks: the minimal scheduling unit of HGMatch (Definition VI.1).

A task carries nothing but the tuple of data hyperedge ids matched so
far; every other piece of state is recomputed from it in O(total arity).
That is what makes tasks cheap to spawn, cheap to steal, and what gives
the scheduler its memory bound (Theorem VI.1).

Three task kinds exist, one per operator of the paper's dataflow
(Sec. VI-A, Fig. 5a: SCAN → EXPAND × k → SINK):

* ``TSCAN``  — the root task; expands the empty embedding by scanning the
  first query hyperedge's signature partition,
* ``TEXPAND`` — expands one partial embedding by the next hyperedge,
* ``TSINK``  — a complete embedding reaching the sink (counted/output).

The executors never materialise explicit ``TSINK`` objects: a child whose
length equals the plan length is consumed on the spot, which is
behaviourally identical and avoids a million tiny allocations.
"""

from __future__ import annotations

import logging
import os
import random
from dataclasses import dataclass, field
from typing import List, Tuple

from ..core.counters import MatchCounters

logger = logging.getLogger("repro.parallel")

#: A partial embedding: matched data hyperedge ids for steps 0..k-1.
PartialEmbedding = Tuple[int, ...]

#: The root task (the empty partial embedding, i.e. TSCAN).
ROOT_TASK: PartialEmbedding = ()


def default_seed() -> int:
    """The simulated scheduler's seed: ``REPRO_SEED`` or 0.

    Simulator only: :class:`~repro.parallel.simulation.SimulatedExecutor`
    picks its steal victims from an RNG seeded by this value, never
    from the process-global :mod:`random` state, so two runs of the
    same job under the same ``REPRO_SEED`` make identical decisions.
    The shard pool reads no seed: a member's reply is a pure function
    of the request, and its backoff jitter seeds from member names and
    fixed constants.

    Resolved at call time (like ``REPRO_INDEX_BACKEND``) so a test
    session or deployment can switch seeds without touching call sites.
    """
    value = os.environ.get("REPRO_SEED")
    try:
        return int(value) if value else 0
    except ValueError:
        raise ValueError(
            f"REPRO_SEED must be an integer, got {value!r}"
        ) from None


def join_or_kill(process, timeout: float = 5.0, label: str = "worker") -> bool:
    """Join ``process``, escalating terminate → kill instead of leaking.

    Every join in the shard runtimes funnels through here so a stuck
    worker can never silently survive its pool: a process that misses
    the ``timeout`` join is terminated (SIGTERM) with a logged warning,
    and one that survives *that* is killed (SIGKILL) — each escalation
    gets its own ``timeout`` join.  Returns True when the process ended
    by itself within the first join, False when escalation was needed
    (the caller's cleanup still completed either way).
    """
    process.join(timeout=timeout)
    if not process.is_alive():
        return True
    logger.warning(
        "%s (pid %s) did not exit within %.1fs; terminating",
        label, process.pid, timeout,
    )
    process.terminate()
    process.join(timeout=timeout)
    if not process.is_alive():
        return False
    logger.warning(
        "%s (pid %s) survived terminate; killing",
        label, process.pid,
    )
    kill = getattr(process, "kill", process.terminate)
    kill()
    process.join(timeout=timeout)
    return False


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with jittered exponential backoff.

    ``delay(attempt)`` for attempts ``0, 1, 2, ...`` grows
    ``base_delay · 2^attempt`` capped at ``max_delay``, stretched by a
    uniform ``[0, jitter]`` fraction so a pool of coordinators (or one
    coordinator's many workers) never retries in lockstep.  The jitter
    draws from a caller-supplied :class:`random.Random` — seeded, so
    retry schedules are as reproducible as everything else here.

    Shared by every retry loop in the shard runtimes: coordinator →
    worker TCP connects, spawned-worker ready polling and the
    supervisor's restart backoff.  Lives
    here (next to :func:`join_or_kill`) because it is scheduling
    policy, not socket code.
    """

    attempts: int = 4
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.5

    def delay(
        self, attempt: int, rng: "random.Random | None" = None
    ) -> float:
        base = min(self.max_delay, self.base_delay * (2.0 ** attempt))
        if rng is None or self.jitter <= 0:
            return base
        return base * (1.0 + self.jitter * rng.random())


@dataclass
class WorkerStats:
    """Per-worker accounting used by the load-balancing experiment.

    A pool member fills ``busy_time``, ``cpu_time`` and ``embeddings``
    for every part; ``tasks_executed`` is read off the part's funnel,
    so it stays 0 when the request asked for none."""

    worker_id: int
    tasks_executed: int = 0
    embeddings: int = 0
    busy_time: float = 0.0
    steal_attempts: int = 0
    steals_succeeded: int = 0
    tasks_stolen: int = 0
    peak_queue: int = 0
    #: Bytes of candidate payloads this worker shipped across a process
    #: boundary (:func:`~repro.parallel.level_sync.expand_level` only).
    payload_bytes: int = 0
    #: CPU seconds this worker's own thread spent on its part
    #: (``time.thread_time`` deltas; pool members only).  Unlike
    #: ``busy_time`` — a wall-clock span that inflates with scheduler
    #: contention when more workers than cores run concurrently — this
    #: measures the work a worker actually performed.
    cpu_time: float = 0.0

    def as_row(self) -> dict:
        return {
            "worker": self.worker_id,
            "tasks": self.tasks_executed,
            "embeddings": self.embeddings,
            "busy_time": self.busy_time,
            "cpu_time": self.cpu_time,
            "steals": self.steals_succeeded,
            "stolen_tasks": self.tasks_stolen,
            "peak_queue": self.peak_queue,
            "payload_bytes": self.payload_bytes,
        }


def worker_loads(stats: "list[WorkerStats]") -> "list[float]":
    """Per-worker observed load, ordered by worker id.

    Prefers the contention-robust :attr:`WorkerStats.cpu_time` and
    falls back to :attr:`WorkerStats.busy_time` for executors that do
    not record CPU deltas (the simulation).
    """
    ordered = sorted(stats, key=lambda entry: entry.worker_id)
    if any(entry.cpu_time > 0 for entry in ordered):
        return [entry.cpu_time for entry in ordered]
    return [entry.busy_time for entry in ordered]


def load_imbalance(stats: "list[WorkerStats]") -> float:
    """Max/mean per-worker load — 1.0 is perfect balance.

    The critical path of a parallel job is its slowest worker, so this
    ratio is exactly the factor the job loses to skew.
    """
    loads = worker_loads(stats)
    mean = sum(loads) / max(len(loads), 1)
    if mean <= 0:
        return 1.0
    return max(loads) / mean


@dataclass
class ParallelResult:
    """Outcome of one parallel matching job."""

    embeddings: int
    elapsed: float
    #: The Fig. 9 funnel: the caller's ``MatchCounters`` when it passed
    #: one (the parts' funnels merged in), else None — nothing built.
    counters: "MatchCounters | None"
    worker_stats: List[WorkerStats] = field(default_factory=list)

    def load_imbalance(self) -> float:
        """Max/mean per-worker load (1.0 = perfect balance): CPU time
        where the workers record it, else busy time."""
        return load_imbalance(self.worker_stats)
