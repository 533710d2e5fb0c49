"""Tests for the benchmark harness, workloads and reporting."""

from __future__ import annotations

import pytest

from repro import HGMatch
from repro.bench import (
    QueryRecord,
    average_time,
    completion_ratio,
    format_series,
    format_table,
    geometric_mean,
    group_records,
    log_bar,
    run_baseline,
    run_hgmatch,
    speedup,
    workload,
)
from repro.baselines import make_baseline
from repro.datasets import load_dataset
from repro.errors import TimeoutExceeded


class TestHarness:
    def test_paper_figure_engines_keep_the_postings_cost_model(self):
        """The harness and the cached dataset stores report paper
        figures: pinned to ``merge``, not to the library default."""
        from repro import MatchCounters
        from repro.bench import make_engine
        from repro.datasets import load_store

        data = load_dataset("HC")
        query = workload("HC", "q2", queries_per_setting=1)[0]
        for engine in (
            make_engine(data), HGMatch(data, store=load_store("HC"))
        ):
            assert engine.index_backend == "merge"
            counters = MatchCounters()
            engine.count(query, counters=counters)
            assert counters.work_model == "postings"

    def test_run_hgmatch_records_success(self):
        data = load_dataset("HC")
        engine = HGMatch(data)
        queries = workload("HC", "q2", queries_per_setting=2)
        record = run_hgmatch(engine, queries[0], "HC", "q2", 0, timeout=10.0)
        assert record.completed
        assert record.embeddings >= 1
        assert record.elapsed >= 0.0

    def test_run_baseline_records_success(self):
        data = load_dataset("HC")
        matcher = make_baseline("CFL-H", data)
        queries = workload("HC", "q2", queries_per_setting=2)
        record = run_baseline(matcher, queries[0], "HC", "q2", 0, timeout=10.0)
        assert record.engine == "CFL-H"
        assert record.completed

    def test_timeout_recorded_not_raised(self):
        from repro.bench.harness import run_with_timeout

        def runner():
            raise TimeoutExceeded(1.0, 1.0)

        result = run_with_timeout(runner, "X", "D", "q2", 0, timeout=1.0)
        assert not result.completed
        assert result.embeddings == -1
        assert result.charged_time(1.0) == 1.0

    def test_aggregations(self):
        records = [
            QueryRecord("E", "D", "q2", 0, 0.5, 10, True),
            QueryRecord("E", "D", "q2", 1, 9.9, -1, False),
        ]
        assert average_time(records, timeout=10.0) == pytest.approx(5.25)
        assert completion_ratio(records) == 0.5
        grouped = group_records(records)
        assert list(grouped) == [("E", "D", "q2")]

    def test_empty_aggregations(self):
        assert average_time([], 10.0) == 0.0
        assert completion_ratio([]) == 0.0


class TestWorkloads:
    def test_workload_is_deterministic(self):
        first = workload("CH", "q2", queries_per_setting=3)
        second = workload("CH", "q2", queries_per_setting=3)
        assert first == second

    def test_workload_respects_setting(self):
        for query in workload("CH", "q3", queries_per_setting=3):
            assert query.num_edges == 3
            assert 10 <= query.num_vertices <= 20

    def test_workloads_differ_across_settings(self):
        q2 = workload("CP", "q2", queries_per_setting=2)
        q3 = workload("CP", "q3", queries_per_setting=2)
        assert q2[0].num_edges != q3[0].num_edges


class TestReporting:
    def test_format_table(self):
        text = format_table(
            [{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}], title="T"
        )
        assert text.startswith("T")
        assert "a " in text and "22" in text

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([])

    def test_format_series(self):
        line = format_series("speedup", [1.0, 1.9, 3.8], unit="x")
        assert line.startswith("speedup:")
        assert line.endswith("x")

    def test_log_bar_monotone(self):
        assert len(log_bar(1.0)) > len(log_bar(1e-3))
        assert log_bar(0.0) == ""

    def test_speedup(self):
        assert speedup(10.0, 2.0) == 5.0
        assert speedup(1.0, 0.0) == float("inf")

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 100.0]) == pytest.approx(10.0)
        assert geometric_mean([]) == 0.0
        assert geometric_mean([0.0, -5.0]) == 0.0
