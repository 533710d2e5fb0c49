"""Worker supervision: the cluster's restart policy, graceful degradation.

The cluster owns its slots and decides every restart
(:meth:`LocalCluster.respawn`), whoever asks — the pool's ladder or
``repro supervise``'s poll loop (:meth:`LocalCluster.restart_due`).
Its contract: a slot's first restart is immediate, a later one waits
out the jittered backoff (so the poll after a *second* death only
schedules), each slot's restart budget bounds the attempts, an
exhausted slot degrades the pool instead of failing it, and only a
cluster with *zero* live workers and no budget anywhere is an error.
The restarted pool must serve jobs with counts bit-identical to the
original — restarts rebuild the worker from the same pure function.
"""

from __future__ import annotations

import random
import time

import pytest

from repro import HGMatch
from repro.errors import SchedulerError
from repro.parallel import ShardPool, spawn_local_cluster
from repro.parallel import cluster as cluster_module
from repro.parallel.tasks import RetryPolicy
from repro.testing import make_random_instance


@pytest.fixture(scope="module")
def instance():
    rng = random.Random(987)
    while True:
        candidate = make_random_instance(rng)
        if candidate is not None:
            return candidate


@pytest.fixture(autouse=True)
def fast_backoff(monkeypatch):
    """Tight backoff so tests converge fast but still exercise the
    schedule-then-restart split; a worker must stay up a whole second
    to earn its budget back, which no test here lets it."""
    monkeypatch.setattr(
        cluster_module, "RESTART_RETRY",
        RetryPolicy(attempts=3, base_delay=0.05, max_delay=1.0),
    )


def _live(cluster) -> int:
    return sum(process.is_alive() for process in cluster.processes)


def _poll_until_restart(cluster, timeout=15.0):
    deadline = time.monotonic() + timeout
    restarts = 0
    while restarts == 0 and time.monotonic() < deadline:
        restarts = cluster.restart_due()
        time.sleep(0.02)
    return restarts


def test_restart_restores_parity(instance):
    """Kill a worker; the cluster restarts it within the budget and the
    restarted pool serves bit-identical counts.  A slot's second death
    is restarted only after its backoff."""
    data, query = instance
    engine = HGMatch(data, index_backend="bitset")
    with spawn_local_cluster(data, 2, index_backend="bitset") as cluster:
        expected = engine.count(query)
        cluster.kill_member(0)
        assert _live(cluster) == 1
        # A first restart is immediate.
        assert cluster.restart_due() == 1
        assert _live(cluster) == 2
        cluster.kill_member(0)
        # The first poll after a second death only *schedules*.
        assert cluster.restart_due() == 0
        assert cluster.next_restart_in() > 0
        with pytest.raises(SchedulerError, match="shard 0 is backing off"):
            cluster.respawn(0)
        assert _poll_until_restart(cluster) == 1
        assert _live(cluster) == 2
        assert cluster.next_restart_in() == float("inf")
        executor = ShardPool(
            addresses=cluster.addresses, index_backend="bitset",
        )
        try:
            assert executor.run(engine, query).embeddings == expected
        finally:
            executor.close()
    engine.close()


def test_budget_exhaustion_degrades_not_fails(instance, monkeypatch):
    """A slot that keeps dying runs out of budget and is abandoned;
    with the other worker alive, restart_due() keeps succeeding —
    graceful degradation, not an error."""
    data, _query = instance
    monkeypatch.setattr(cluster_module, "RESTART_BUDGET", 1)
    with spawn_local_cluster(data, 2, index_backend="bitset") as cluster:
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline and not cluster.exhausted(0):
            # Keep killing worker 0 the moment it is up.
            if cluster.processes[0].is_alive():
                cluster.kill_member(0)
            cluster.restart_due()
            time.sleep(0.02)
        assert cluster.exhausted(0) and not cluster.exhausted(1)
        assert not cluster.processes[0].is_alive()
        # Degraded but servable: polling is not an error.
        assert cluster.restart_due() == 0
        assert _live(cluster) == 1
        with pytest.raises(
            SchedulerError, match="shard 0 is out of restart budget"
        ):
            cluster.respawn(0)


def test_unservable_pool_raises(instance, monkeypatch):
    """Zero live workers + zero budget anywhere = a clean error."""
    data, _query = instance
    monkeypatch.setattr(cluster_module, "RESTART_BUDGET", 0)
    with spawn_local_cluster(data, 1, index_backend="bitset") as cluster:
        cluster.kill_member(0)
        with pytest.raises(SchedulerError, match="restart budget"):
            cluster.restart_due()


def test_supervised_restart_rejoins_a_fixed_address_pool(instance):
    """A restarted worker rebinds its slot's port: a pool opened on the
    cluster's addresses *before* the kill counts exactly after the
    restart — with the other member gone too, the ladder reconnects at
    the last address and reaches the restarted worker, with nothing to
    discover."""
    data, query = instance
    engine = HGMatch(data, index_backend="bitset")
    with spawn_local_cluster(data, 2, index_backend="bitset") as cluster:
        expected = engine.count(query)
        addresses = list(cluster.addresses)
        pool = ShardPool(addresses=addresses, index_backend="bitset")
        try:
            assert pool.run(engine, query).embeddings == expected
            cluster.kill_member(0)
            assert _poll_until_restart(cluster) == 1
            assert cluster.addresses == addresses
            cluster.kill_member(1)
            result = pool.run(engine, query)
            assert result.embeddings == expected
            assert {s.worker_id for s in result.worker_stats} == {0}
            assert pool._member(0).address == addresses[0]
        finally:
            pool.close()
    engine.close()
