"""Worker supervision: restarts under a budget, graceful degradation.

The supervisor's contract: a killed worker is restarted under the
jittered-backoff retry policy (never inline — the poll after the
backoff performs it), each slot's restart budget bounds the attempts,
an exhausted slot degrades the pool instead of failing it, and only a
pool with *zero* live workers and zero budget anywhere is an error.
The restarted pool must serve jobs with counts bit-identical to the
original — restarts rebuild shards from the same pure function.
"""

from __future__ import annotations

import random
import time

import pytest

from repro import HGMatch
from repro.errors import SchedulerError
from repro.parallel import (
    ShardPool,
    WorkerRegistry,
    WorkerSupervisor,
)
from repro.parallel.tasks import RetryPolicy
from repro.testing import make_random_instance

#: Tight backoff so tests converge fast but still exercise the
#: schedule-then-restart split.
FAST_RETRY = RetryPolicy(attempts=3, base_delay=0.05, max_delay=0.2)


@pytest.fixture(scope="module")
def instance():
    rng = random.Random(987)
    while True:
        candidate = make_random_instance(rng)
        if candidate is not None:
            return candidate


def _poll_until_restart(supervisor, timeout=15.0):
    deadline = time.monotonic() + timeout
    restarts = 0
    while restarts == 0 and time.monotonic() < deadline:
        restarts = supervisor.poll()
        time.sleep(0.02)
    return restarts


def test_requires_start_and_validates_budget(instance):
    data, _ = instance
    with pytest.raises(SchedulerError, match="restart_budget"):
        WorkerSupervisor(data, 1, restart_budget=-1)
    supervisor = WorkerSupervisor(data, 1)
    with pytest.raises(SchedulerError, match="start"):
        supervisor.poll()
    with pytest.raises(SchedulerError, match="start"):
        supervisor.status()


def test_restart_restores_parity(instance):
    """Kill a supervised worker; the supervisor restarts it within the
    budget and the restarted pool serves bit-identical counts."""
    data, query = instance
    engine = HGMatch(data, index_backend="bitset")
    supervisor = WorkerSupervisor(
        data, 2, index_backend="bitset", retry=FAST_RETRY,
    )
    with supervisor:
        expected = engine.count(query)
        supervisor.cluster.kill_member(0)
        assert supervisor.live_count() == 1
        # First poll only *schedules* (jittered backoff, no restart).
        assert supervisor.poll() == 0
        status = {s.shard_id: s for s in supervisor.status()}
        assert status[0].state == "backoff"
        assert status[1].state == "running"
        assert _poll_until_restart(supervisor) == 1
        assert supervisor.live_count() == 2
        status = {s.shard_id: s for s in supervisor.status()}
        assert status[0].state == "running"
        assert status[0].restarts == 1
        executor = ShardPool(
            addresses=supervisor.addresses, index_backend="bitset",
        )
        try:
            assert executor.run(engine, query).embeddings == expected
        finally:
            executor.close()
    engine.close()


def test_budget_exhaustion_degrades_not_fails(instance):
    """A slot that keeps dying runs out of budget and is abandoned;
    with the other shard's worker alive, poll() keeps succeeding —
    graceful degradation, not an error."""
    data, _query = instance
    supervisor = WorkerSupervisor(
        data, 2, index_backend="bitset",
        restart_budget=1, retry=FAST_RETRY,
    )
    with supervisor:
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            status = {s.shard_id: s for s in supervisor.status()}
            if status[0].state == "exhausted":
                break
            # Keep killing shard 0's worker the moment it is up.
            if supervisor.cluster.processes[0].is_alive():
                supervisor.cluster.kill_member(0)
            supervisor.poll()
            time.sleep(0.02)
        status = {s.shard_id: s for s in supervisor.status()}
        assert status[0].state == "exhausted"
        assert status[0].restarts == 1
        assert not status[0].alive
        # Degraded but servable: polling is not an error.
        assert supervisor.poll() == 0
        assert supervisor.live_count() == 1


def test_unservable_pool_raises(instance):
    """Zero live workers + zero budget anywhere = a clean error."""
    data, _query = instance
    supervisor = WorkerSupervisor(
        data, 1, index_backend="bitset",
        restart_budget=0, retry=FAST_RETRY,
    )
    with supervisor:
        supervisor.cluster.kill_member(0)
        with pytest.raises(SchedulerError, match="restart budget"):
            supervisor.poll()


def test_supervised_restart_reannounces(instance):
    """With announce wired, a restarted worker re-registers with the
    registry at its fresh port — coordinators discover the restart
    without the supervisor telling them anything."""
    data, _query = instance
    with WorkerRegistry(
        heartbeat_interval=0.1, miss_budget=2
    ) as registry:
        supervisor = WorkerSupervisor(
            data, 2, index_backend="bitset", retry=FAST_RETRY,
            announce=registry.address, heartbeat_interval=0.1,
        )
        with supervisor:
            registry.wait_for(2, timeout=15.0)
            old_address = registry.record(0).address
            supervisor.cluster.kill_member(0)
            assert _poll_until_restart(supervisor) == 1
            deadline = time.monotonic() + 10.0
            new_address = None
            while time.monotonic() < deadline:
                record = registry.record(0)
                if (
                    record is not None
                    and record.address != old_address
                ):
                    new_address = record.address
                    break
                time.sleep(0.05)
            assert new_address is not None
            assert new_address == supervisor.addresses[0]
