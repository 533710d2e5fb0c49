"""Worker supervision: keep a local shard-worker pool alive.

The elastic runtime's third leg (next to discovery —
:mod:`repro.parallel.registry` — and the coordinator's
``admit``/``drain``): a :class:`WorkerSupervisor` owns the
``num_shards`` local ``serve-shard`` processes of one pool,
health-checks them, and restarts crashed ones under the shared
:class:`~repro.parallel.tasks.RetryPolicy` jittered backoff with a
per-slot restart budget.

Restart policy
--------------
Each worker slot keeps its own budget and backoff clock:

* A slot whose process dies is **not** restarted inline — the death is
  noted and the next restart *attempt time* is scheduled with the
  retry policy's jittered exponential delay (seeded per slot name,
  so schedules are reproducible).  :meth:`poll` performs the restart
  when the attempt time has passed.  The supervisor therefore never
  busy-restarts a crash-looping worker.
* A restart that fails (the fresh process dies before reporting ready)
  consumes budget exactly like a crash.
* A slot that exhausts its budget is marked ``exhausted`` and left
  down.  That is *graceful degradation*, not an error: the pool keeps
  serving with fewer members as long as any one survives (the
  coordinator's failover handles the rest).  Only when **zero**
  supervised workers remain alive and every slot is out of budget does
  :meth:`poll` raise — there is nothing left to serve with.

``repro supervise`` is the CLI wrapper; ``make test-elastic`` and the
``elastic-smoke`` CI job kill a supervised worker and assert the
restart (see ``docs/ARCHITECTURE.md`` "Elastic runtime & operations").
"""

from __future__ import annotations

import logging
import random
import time
from dataclasses import dataclass
from typing import List, Tuple

from ..errors import SchedulerError
from .cluster import spawn_local_cluster
from .tasks import RetryPolicy

logger = logging.getLogger(__name__)

#: Default number of restarts each worker slot is granted.
DEFAULT_RESTART_BUDGET = 3

#: Restart backoff: same shape as the coordinator's connect retries,
#: but starting slower — a worker restart means a process died, and
#: hammering a host that is OOM-killing workers helps nobody.
RESTART_RETRY = RetryPolicy(
    attempts=DEFAULT_RESTART_BUDGET, base_delay=0.2, max_delay=5.0
)


@dataclass(frozen=True)
class SlotStatus:
    """Point-in-time health snapshot of one supervised worker slot."""

    shard_id: int
    state: str  #: ``running`` | ``backoff`` | ``exhausted`` | ``stopped``
    address: "Tuple[str, int] | None"
    pid: "int | None"
    restarts: int  #: restarts consumed so far
    restart_budget: int
    next_attempt_at: "float | None"  #: monotonic deadline while in backoff

    @property
    def alive(self) -> bool:
        return self.state == "running"


class _Slot:
    """Mutable supervision state for one worker slot."""

    __slots__ = ("shard_id", "restarts", "next_attempt_at", "exhausted", "rng")

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        self.restarts = 0
        self.next_attempt_at: "float | None" = None
        self.exhausted = False
        # Per-slot jitter stream: reproducible backoff schedules, and
        # no two slots share a schedule (no synchronised restart herd).
        self.rng = random.Random(0x5AFE ^ (shard_id << 20))


class WorkerSupervisor:
    """Own, health-check and restart a local shard-worker pool.

    :meth:`start` boots the ``num_shards`` workers (via
    :func:`~repro.parallel.cluster.spawn_local_cluster`, so the
    pool is byte-for-byte the pool every test and benchmark uses);
    :meth:`poll` is one supervision step — call it from your own loop,
    or let :meth:`run_forever` drive it.  With ``announce`` set the
    supervised workers also register with a
    :class:`~repro.parallel.registry.WorkerRegistry`, which is how a
    coordinator discovers restarts without the supervisor telling it
    anything (the fresh worker announces its fresh port).
    """

    def __init__(
        self,
        graph,
        num_shards: int,
        index_backend: "str | None" = None,
        announce: "Tuple[str, int] | None" = None,
        heartbeat_interval: "float | None" = None,
        restart_budget: int = DEFAULT_RESTART_BUDGET,
        retry: "RetryPolicy | None" = None,
        chaos=None,
    ) -> None:
        if restart_budget < 0:
            raise SchedulerError("restart_budget must be >= 0")
        self.graph = graph
        self.num_shards = num_shards
        self.index_backend = index_backend
        self.announce = announce
        self.heartbeat_interval = heartbeat_interval
        self.restart_budget = restart_budget
        self.retry = RESTART_RETRY if retry is None else retry
        self.chaos = chaos
        self.cluster = None
        self._slots: "List[_Slot]" = []

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "WorkerSupervisor":
        """Boot the pool; idempotent."""
        if self.cluster is not None:
            return self
        self.cluster = spawn_local_cluster(
            self.graph,
            self.num_shards,
            self.index_backend,
            chaos=self.chaos,
            announce=self.announce,
            heartbeat_interval=self.heartbeat_interval,
        )
        self._slots = [
            _Slot(shard_id) for shard_id in range(self.num_shards)
        ]
        logger.info("supervising %d shard worker(s)", len(self._slots))
        return self

    def close(self) -> None:
        """Stop every supervised worker; idempotent."""
        if self.cluster is not None:
            self.cluster.close()
            self.cluster = None
        self._slots = []

    def __enter__(self) -> "WorkerSupervisor":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- introspection ---------------------------------------------------

    @property
    def addresses(self) -> "List[Tuple[str, int]]":
        """Current worker addresses, by slot (stale entries for
        down slots — discovery via the registry is the live view)."""
        self._require_started()
        return list(self.cluster.addresses)

    def live_count(self) -> int:
        self._require_started()
        return sum(
            1 for process in self.cluster.processes if process.is_alive()
        )

    def status(self) -> "List[SlotStatus]":
        """Health snapshot of every slot, in slot order."""
        self._require_started()
        out: "List[SlotStatus]" = []
        for slot in self._slots:
            process = self.cluster.processes[slot.shard_id]
            if process.is_alive():
                state = "running"
                address = self.cluster.addresses[slot.shard_id]
            elif slot.exhausted:
                state = "exhausted"
                address = None
            elif slot.next_attempt_at is not None:
                # Due or not: the next poll() decides; either way the
                # slot is between death and restart.
                state = "backoff"
                address = None
            else:
                state = "stopped"
                address = None
            out.append(SlotStatus(
                shard_id=slot.shard_id,
                state=state,
                address=address,
                pid=process.pid if process.is_alive() else None,
                restarts=slot.restarts,
                restart_budget=self.restart_budget,
                next_attempt_at=slot.next_attempt_at,
            ))
        return out

    # -- supervision -----------------------------------------------------

    def poll(self) -> int:
        """One supervision step; returns the number of restarts it
        performed.

        Detects dead workers, schedules their restart under the retry
        policy's jittered backoff, restarts the ones whose attempt time
        has come, and marks slots that ran out of budget as exhausted.
        Raises :class:`SchedulerError` only when the pool is
        *unservable*: zero live workers and zero budget anywhere.
        """
        self._require_started()
        now = time.monotonic()
        restarted = 0
        for slot in self._slots:
            process = self.cluster.processes[slot.shard_id]
            if process.is_alive() or slot.exhausted:
                continue
            if slot.next_attempt_at is None:
                # Fresh death: schedule, don't restart inline.
                if slot.restarts >= self.restart_budget:
                    self._exhaust(slot, "died")
                    continue
                delay = self.retry.delay(slot.restarts, slot.rng)
                slot.next_attempt_at = now + delay
                logger.warning(
                    "shard %d died (exit code %s); restart %d/%d in %.2fs",
                    slot.shard_id, process.exitcode,
                    slot.restarts + 1, self.restart_budget, delay,
                )
                continue
            if slot.next_attempt_at > now:
                continue  # still backing off
            slot.restarts += 1
            slot.next_attempt_at = None
            try:
                address = self.cluster.respawn(slot.shard_id)
            except SchedulerError as exc:
                if slot.restarts >= self.restart_budget:
                    self._exhaust(slot, f"restart failed: {exc}")
                else:
                    delay = self.retry.delay(slot.restarts, slot.rng)
                    slot.next_attempt_at = time.monotonic() + delay
                    logger.warning(
                        "shard %d restart failed (%s); retry %d/%d in %.2fs",
                        slot.shard_id, exc,
                        slot.restarts + 1, self.restart_budget, delay,
                    )
                continue
            restarted += 1
            logger.info(
                "restarted shard %d at %s:%s (restart %d/%d)",
                slot.shard_id, address[0], address[1],
                slot.restarts, self.restart_budget,
            )
        if self.live_count() == 0 and all(
            slot.exhausted for slot in self._slots
        ):
            raise SchedulerError(
                "every supervised worker is down and out of restart "
                "budget; nothing left to serve with"
            )
        return restarted

    def run_forever(
        self,
        duration: "float | None" = None,
        poll_interval: float = 0.2,
    ) -> int:
        """Drive :meth:`poll` until ``duration`` elapses (forever when
        None) or the pool becomes unservable; returns the total number
        of restarts performed.  KeyboardInterrupt exits cleanly."""
        self._require_started()
        deadline = (
            None if duration is None else time.monotonic() + duration
        )
        total = 0
        try:
            while deadline is None or time.monotonic() < deadline:
                total += self.poll()
                time.sleep(poll_interval)
        except KeyboardInterrupt:  # pragma: no cover - interactive stop
            pass
        return total

    # -- helpers ---------------------------------------------------------

    def _require_started(self) -> None:
        if self.cluster is None:
            raise SchedulerError(
                "supervisor is not running; call start() first"
            )

    def _exhaust(self, slot: _Slot, cause: str) -> None:
        slot.exhausted = True
        slot.next_attempt_at = None
        live = self.live_count()
        logger.error(
            "shard %d is out of restart budget (%d/%d, %s); "
            "degrading — %d supervised worker(s) still live",
            slot.shard_id, slot.restarts,
            self.restart_budget, cause, live,
        )
