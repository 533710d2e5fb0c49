"""Tests for scheduler memory accounting (Exp-5 substrate)."""

from __future__ import annotations

import random

import pytest

from repro import HGMatch
from repro.hypergraph.generators import generate_hypergraph
from repro.hypergraph.sampling import query_setting, sample_query
from repro.parallel import (
    entry_units_per_partial,
    measure_memory,
    theoretical_memory_bound,
)


@pytest.fixture(scope="module")
def heavy_instance():
    """A low-selectivity instance (one label) with many embeddings."""
    rng = random.Random(41)
    data = generate_hypergraph(60, 500, 1, 2.2, 3, rng)
    query = sample_query(data, query_setting("q2"), rng)
    return HGMatch(data), query


class TestMeasurement:
    def test_strategies_agree_on_counts(self, heavy_instance):
        engine, query = heavy_instance
        task = measure_memory(engine, query, "task")
        bfs = measure_memory(engine, query, "bfs")
        assert task.embeddings == bfs.embeddings

    def test_bfs_peak_dominates_task_peak(self, heavy_instance):
        engine, query = heavy_instance
        task = measure_memory(engine, query, "task")
        bfs = measure_memory(engine, query, "bfs")
        if bfs.embeddings > 20:
            assert bfs.peak_partial_embeddings > task.peak_partial_embeddings

    def test_parallel_task_strategy(self, heavy_instance):
        engine, query = heavy_instance
        parallel = measure_memory(engine, query, "task", workers=2)
        sequential = measure_memory(engine, query, "task")
        assert parallel.embeddings == sequential.embeddings

    def test_unknown_strategy_rejected(self, heavy_instance):
        engine, query = heavy_instance
        with pytest.raises(ValueError):
            measure_memory(engine, query, "dfs-ish")

    def test_rows(self, heavy_instance):
        engine, query = heavy_instance
        row = measure_memory(engine, query, "task").as_row()
        assert {"strategy", "embeddings", "peak_partials", "peak_units"} <= set(row)


class TestBound:
    def test_task_peak_within_theorem_vi1_bound(self, heavy_instance):
        """Theorem VI.1: the LIFO scheduler's retained memory stays below
        a_q × |E(q)|² × |E(H)| entry units."""
        engine, query = heavy_instance
        task = measure_memory(engine, query, "task")
        bound = theoretical_memory_bound(query, engine.data)
        assert task.peak_entry_units <= bound

    def test_bound_scales_with_workers(self, heavy_instance):
        engine, query = heavy_instance
        assert theoretical_memory_bound(
            query, engine.data, workers=4
        ) == 4 * theoretical_memory_bound(query, engine.data)

    def test_entry_units(self, fig1_query):
        assert entry_units_per_partial(fig1_query) == 2 + 3 + 4


class TestBlockDfsBound:
    """``count``/``match`` on ``bitset`` expand blocks of siblings, and
    stay depth-first: the partial embeddings held are the parents of the
    live frames plus the block in hand, at most ``num_steps`` blocks."""

    BLOCK = 4

    @pytest.fixture(scope="class")
    def star_instance(self):
        from repro import Hypergraph

        leaves = 40
        data = Hypergraph(
            ["C"] + ["A", "B"] * (leaves // 2),
            [{0, leaf} for leaf in range(1, leaves + 1)],
        )
        query = Hypergraph(["C", "A", "B", "A"], [{0, 1}, {0, 2}, {0, 3}])
        return HGMatch(data, index_backend="bitset"), query

    @pytest.mark.parametrize("batched", [False, True])
    def test_peak_is_bounded_by_blocks_not_by_results(self, star_instance, batched):
        from unittest import mock

        from repro import MatchCounters
        from repro.core import frontier

        engine, query = star_instance
        with mock.patch.multiple(
            frontier,
            FRONTIER_BLOCK=self.BLOCK,
            batched_is_cheaper=lambda *args: batched,
        ):
            bfs, dfs, enumerated = MatchCounters(), MatchCounters(), MatchCounters()
            count = engine.count_bfs(query, counters=bfs)
            assert engine.count(query, counters=dfs) == count == 20 * 20 * 19
            assert sum(1 for _ in engine.match(query, counters=enumerated)) == count
        # Levels 0 and 1 are 20 and 400 wide: 5 and 100 blocks.
        assert bfs.peak_retained == count
        for counters in (dfs, enumerated):
            # One full frame (a block of level-1 parents) plus a full
            # last-level block in hand; the root is no embedding and the
            # last level's children are never decoded, so the
            # num_steps × FRONTIER_BLOCK bound has a block to spare.
            assert counters.peak_retained == (query.num_edges - 1) * self.BLOCK
            assert counters.retained == 0

    @pytest.mark.parametrize("backend", ["merge", "adaptive"])
    def test_lifo_backends_keep_the_deque_accounting(self, heavy_instance, backend):
        """Blocks of one are the paper's tasks: ``peak_retained`` is the
        size of the LIFO deque of unexpanded children, as measured by a
        stack written out here."""
        from repro import MatchCounters

        _, query = heavy_instance
        engine = HGMatch(heavy_instance[0].data, index_backend=backend)
        plan = engine.plan(query)
        stack, peak, embeddings = [()], 0, 0
        while stack:
            matched = stack.pop()
            children = engine.expand(plan, matched)
            if len(matched) == plan.num_steps - 1:
                embeddings += len(children)
            else:
                stack.extend(children)
                peak = max(peak, len(stack))
        counters = MatchCounters()
        assert engine.count(query, counters=counters) == embeddings
        assert counters.peak_retained == peak > plan.num_steps
        enumerated = MatchCounters()
        assert sum(1 for _ in engine.match(query, counters=enumerated)) == embeddings
        assert enumerated.peak_retained == peak
