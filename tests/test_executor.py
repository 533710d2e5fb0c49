"""``executor="threads"``: the engine's root parts on a thread pool —
the same cut the shard pool makes, run inside this process."""

from __future__ import annotations

import itertools
import random
import sys
import threading

import pytest

from repro import HGMatch, Hypergraph, MatchCounters, TimeoutExceeded
from repro.core import engine as engine_module
from repro.core.ordering import is_connected_order
from repro.hypergraph.generators import generate_hypergraph
from repro.hypergraph.sampling import query_setting, sample_query

FUNNEL = (
    "candidates", "filtered", "final_candidates", "final_filtered",
    "embeddings", "tasks",
)


@pytest.fixture(scope="module")
def parallel_instance():
    rng = random.Random(21)
    data = generate_hypergraph(150, 700, 2, 3.0, 6, rng)
    query = sample_query(data, query_setting("q3"), rng)
    engine = HGMatch(data)
    expected = engine.count(query)
    return engine, query, expected


class TestCorrectness:
    @pytest.mark.parametrize("workers", [1, 2, 4, 8])
    def test_parallel_count_equals_sequential(self, parallel_instance, workers):
        engine, query, expected = parallel_instance
        assert engine.count(query, executor="threads", workers=workers) == expected

    def test_more_workers_than_root_candidates(self, fig1_engine, fig1_query):
        """Parts past the last root candidate are empty and answer 0."""
        roots = len(fig1_engine.expand(fig1_engine.plan(fig1_query), ()))
        counters = MatchCounters()
        assert fig1_engine.count(
            fig1_query, executor="threads", workers=roots + 3, counters=counters
        ) == 2
        assert counters.embeddings == 2

    def test_parts_are_capped_at_the_step0_partition(
        self, fig1_engine, fig1_query, monkeypatch
    ):
        """``workers=10_000`` on a small instance: the sequential count
        and funnel, from no more parts — and part threads alive — than
        the step-0 partition has live rows (an upper bound on roots)."""
        cap = fig1_engine.plan(fig1_query).estimated_start_cardinality
        sequential, threaded = MatchCounters(), MatchCounters()
        expected = fig1_engine.count(fig1_query, counters=sequential)
        before = threading.active_count()
        alive, cuts = [], []
        count_plan = fig1_engine._count_plan

        def recording(plan, part, parts, counters, time_budget):
            alive.append(threading.active_count() - before)
            cuts.append(parts)
            return count_plan(plan, part, parts, counters, time_budget)

        monkeypatch.setattr(fig1_engine, "_count_plan", recording)
        assert fig1_engine.count(
            fig1_query, executor="threads", workers=10_000, counters=threaded
        ) == expected
        for field in FUNNEL:
            assert getattr(threaded, field) == getattr(sequential, field), field
        assert cuts == [cap] * cap
        assert 0 < max(alive) <= cap
        assert threading.active_count() == before

    def test_fig1(self, fig1_engine, fig1_query):
        assert fig1_engine.count(fig1_query, executor="threads", workers=3) == 2

    def test_single_edge_query(self, fig1_engine):
        query = Hypergraph(["A", "B"], [{0, 1}])
        assert fig1_engine.count(query, executor="threads", workers=2) == 2

    def test_count_entry_point(self, parallel_instance):
        engine, query, expected = parallel_instance
        assert engine.count(query, workers=3) == expected

    def test_a_custom_order_reaches_every_part(self, parallel_instance, monkeypatch):
        engine, query, expected = parallel_instance
        default = engine.plan(query).order
        order = next(
            candidate for candidate in itertools.permutations(default)
            if candidate != default and is_connected_order(query, candidate)
        )
        searched = []
        search = HGMatch._search

        def recording(self, plan, *args, **kwargs):
            searched.append((plan.order, kwargs["part"]))
            return search(self, plan, *args, **kwargs)

        monkeypatch.setattr(HGMatch, "_search", recording)
        assert engine.count(
            query, order=order, executor="threads", workers=3
        ) == expected
        assert sorted(searched) == [(order, (p, 3)) for p in range(3)]


@pytest.fixture
def eager_thread_switching():
    """Parts share the engine's store and anchor-union memo: switch
    threads every few bytecodes so a lost update would show."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


class TestAccounting:
    @pytest.mark.parametrize("backend", ["merge", "bitset", "adaptive"])
    @pytest.mark.parametrize("workers", [2, 3, 8])
    def test_funnel_equals_the_sequential_engines(
        self, parallel_instance, backend, workers, eager_thread_switching
    ):
        """Only part 0 charges the step-0 scan and the root task, so the
        parts' funnels add up to one search's; their peaks add up too —
        one queue per worker (Theorem VI.1)."""
        _, query, expected = parallel_instance
        engine = HGMatch(parallel_instance[0].data, index_backend=backend)
        sequential, threaded = MatchCounters(), MatchCounters()
        assert engine.count(query, counters=sequential) == expected
        assert engine.count(
            query, counters=threaded, executor="threads", workers=workers
        ) == expected
        for field in FUNNEL:
            assert getattr(threaded, field) == getattr(sequential, field), field
        assert threaded.work_model == sequential.work_model
        assert threaded.peak_retained >= sequential.peak_retained

    def test_worker_stats_cover_all_tasks(self, parallel_instance):
        """The one scheduler that keeps per-worker rows: every embedding
        and every task but the root (expanded inline, then dealt out)
        is on exactly one worker's account."""
        from repro.parallel import SimulatedExecutor

        engine, query, expected = parallel_instance
        result = SimulatedExecutor(num_workers=4).run(engine, query)
        assert len(result.worker_stats) == 4
        assert sum(s.embeddings for s in result.worker_stats) == expected
        assert (
            sum(s.tasks_executed for s in result.worker_stats)
            == result.counters.tasks - 1
        )

    def test_counters_merged(self, parallel_instance):
        engine, query, expected = parallel_instance
        counters = MatchCounters()
        engine.count(query, counters=counters, executor="threads", workers=2)
        assert counters.embeddings == expected
        assert counters.candidates >= expected

    def test_one_load_imbalance_definition(self, parallel_instance):
        """``ParallelResult`` / ``SimulationResult.load_imbalance()`` are
        ``parallel.load_imbalance``: busy time for the simulation (it
        records no CPU time, so delegating moved no number), CPU time
        once a shard worker reported it."""
        from repro.parallel import (
            ParallelResult, SimulatedExecutor, WorkerStats, load_imbalance,
        )

        engine, query, _ = parallel_instance
        result = SimulatedExecutor(num_workers=3).run(engine, query)
        busy = [stats.busy_time for stats in result.worker_stats]
        assert not any(stats.cpu_time for stats in result.worker_stats)
        assert result.load_imbalance() == pytest.approx(
            max(busy) / (sum(busy) / len(busy))
        )
        assert result.load_imbalance() == load_imbalance(result.worker_stats)
        sharded = ParallelResult(0, 0.0, None, [
            WorkerStats(0, busy_time=1.0, cpu_time=3.0),
            WorkerStats(1, busy_time=1.0, cpu_time=1.0),
        ])
        assert sharded.load_imbalance() == 1.5  # cpu_time, not busy_time
        assert ParallelResult(0, 0.0, None).load_imbalance() == 1.0

    def test_worker_stats_rows(self, parallel_instance):
        from repro.parallel import SimulatedExecutor

        engine, query, _ = parallel_instance
        result = SimulatedExecutor(num_workers=2).run(engine, query)
        row = result.worker_stats[0].as_row()
        assert {"worker", "tasks", "busy_time"} <= set(row)


class TestConfiguration:
    def test_timeout_propagates(self, parallel_instance):
        engine, query, _ = parallel_instance
        with pytest.raises(TimeoutExceeded):
            engine.count(query, executor="threads", workers=2, time_budget=0.0)


class TestFailure:
    def test_a_failing_part_surfaces_after_the_pool_joined(
        self, parallel_instance, monkeypatch
    ):
        engine, query, _ = parallel_instance
        expand_block = engine_module.expand_block
        failed = []

        def failing(data, partition, plan, step, cols, n, *rest):
            if step == 1 and not failed:
                failed.append(cols[0][0])
                raise RuntimeError(f"part below {cols[0][0]} failed")
            return expand_block(data, partition, plan, step, cols, n, *rest)

        monkeypatch.setattr(engine_module, "expand_block", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="part below"):
            engine.count(query, executor="threads", workers=4)
        assert threading.active_count() == before


class TestSeeding:
    """Executor RNGs derive from REPRO_SEED, never from the module-global
    random state, so runs are reproducible per job."""

    def test_default_seed_reads_env(self, monkeypatch):
        from repro.parallel import default_seed

        monkeypatch.delenv("REPRO_SEED", raising=False)
        assert default_seed() == 0
        monkeypatch.setenv("REPRO_SEED", "1234")
        assert default_seed() == 1234
        monkeypatch.setenv("REPRO_SEED", "banana")
        with pytest.raises(ValueError):
            default_seed()

    def test_executors_pick_up_repro_seed(self, monkeypatch):
        from repro.parallel import ShardPool, SimulatedExecutor

        monkeypatch.setenv("REPRO_SEED", "77")
        assert SimulatedExecutor(2).seed == 77
        assert ShardPool(num_shards=2).seed == 77
        # Explicit seeds still win.
        assert SimulatedExecutor(2, seed=5).seed == 5

    def test_global_random_state_does_not_leak_into_jobs(
        self, parallel_instance
    ):
        from repro.parallel import SimulatedExecutor

        engine, query, expected = parallel_instance
        executor = SimulatedExecutor(num_workers=3, seed=9)
        random.seed(1)
        first = executor.run(engine, query)
        random.seed(2)
        second = executor.run(engine, query)
        assert first.embeddings == second.embeddings == expected
        # The victim choice is seeded per job, so the whole steal trace
        # — and with it the virtual clock — repeats.
        assert first.total_steals == second.total_steals
        assert first.makespan == second.makespan

    def test_simulated_runs_reproducible_under_seed(self, parallel_instance):
        from repro.parallel import SimulatedExecutor

        engine, query, expected = parallel_instance
        runs = [
            SimulatedExecutor(num_workers=4, seed=13).run(engine, query)
            for _ in range(2)
        ]
        assert runs[0].embeddings == runs[1].embeddings == expected
        assert runs[0].makespan == runs[1].makespan
        assert runs[0].total_steals == runs[1].total_steals
