"""The solo coordinator: one level-synchronous job at a time over a
:class:`~repro.parallel.pool.ShardPool`.

A solo job is the one-query case of the multiplexed pool:
:meth:`NetShardExecutor.run` opens one
:class:`~repro.parallel.pool.QueryChannel` tagged
:data:`~repro.parallel.transport.SOLO_QUERY_ID` and drives
:func:`~repro.parallel.level_sync.run_level_synchronous` over it, so
counts are bit-identical to the sequential engine.  Everything else —
opening the pool, dispatch, gather, the recovery ladder, replication
and speculation, ``mutate`` / ``rebalance`` / ``admit`` / ``drain`` —
is the pool's, inherited unchanged; the classes here are constructor
names.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import SchedulerError
from ..hypergraph import Hypergraph
from . import transport
from .executor import ParallelResult
from .level_sync import run_level_synchronous
from .pool import QueryChannel, ShardPool


class NetShardExecutor(ShardPool):
    """Run matching jobs, one at a time, over TCP-connected shard
    workers — ``executor="sockets"``.

    Constructed like the :class:`~repro.parallel.pool.ShardPool` it is:
    ``NetShardExecutor(addresses=[...])`` for externally managed
    workers (``--hosts``), ``NetShardExecutor(num_shards=N,
    num_replicas=K)`` to spawn and own a local cluster, or
    :meth:`from_registry` for discovered ones.
    """

    @classmethod
    def from_registry(
        cls,
        registry,
        num_shards: int,
        num_replicas: int = 1,
        wait_timeout: float = 30.0,
        **kwargs,
    ) -> "NetShardExecutor":
        """Build an executor from discovered workers.

        Blocks until the registry has a live worker for every
        ``(shard, replica)`` slot (or ``wait_timeout`` elapses), then
        connects to the announced addresses; the registry stays
        attached, so its missed-heartbeat evictions keep feeding the
        pool's recovery ladder mid-job.
        """
        addresses = registry.wait_for(
            num_shards, num_replicas, timeout=wait_timeout
        )
        return cls(
            addresses=addresses,
            num_replicas=num_replicas,
            registry=registry,
            **kwargs,
        )

    def run(
        self,
        engine,
        query: Hypergraph,
        order: "Sequence[int] | None" = None,
        time_budget: "float | None" = None,
    ) -> ParallelResult:
        """Execute one matching job across the shard pool.

        One channel per job; counts are bit-identical to the sequential
        engine — including under failover and speculation, which
        replace *who* answers a level but never *what* the answer is.
        ``time_budget`` is enforced at level granularity.  A job that
        fails with a :class:`~repro.errors.SchedulerError` takes the
        pool down with it — a solo executor shares its pool with nobody
        and leaves nothing half-composed behind; the next job rebuilds.
        """
        channel = QueryChannel(self, query_id=transport.SOLO_QUERY_ID)
        completed = False
        try:
            result = run_level_synchronous(
                channel, engine, query, order=order, time_budget=time_budget
            )
            completed = True
            return result
        except SchedulerError:
            self.close()
            raise
        finally:
            self.release(channel.query_id, completed)


class ProcessShardExecutor(NetShardExecutor):
    """``executor="processes"``: the coordinator over its own local
    worker pool.

    The hostless constructor of :class:`NetShardExecutor` under the
    name and positional signature the process-pool executor had; it
    overrides nothing — one worker process per store shard, spawned on
    first use, persisting across queries, with the pool's failure
    policy (liveness probe between jobs, budgeted respawn-with-requeue
    mid-job, exact counts).
    """

    def __init__(
        self,
        num_shards: int,
        index_backend: "str | None" = None,
        sharding: "str | None" = None,
        start_method: "str | None" = None,
        seed: "int | None" = None,
    ) -> None:
        super().__init__(
            num_shards=num_shards,
            index_backend=index_backend,
            sharding=sharding,
            seed=seed,
            start_method=start_method,
        )
