"""Benchmark harness: timed, timeout-guarded query execution.

The paper measures average elapsed time per query class with a 1-hour
timeout, counting timed-out queries at the full limit (Section VII-A).
This harness reproduces that protocol at reproduction scale: every
engine run goes through :func:`run_with_timeout`, which returns a
:class:`QueryRecord` carrying the elapsed time, the result count, and
whether the query finished — records feed both the Fig. 8 time tables
and the Table IV completion ratios.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Sequence

from ..core.counters import MatchCounters
from ..core.engine import HGMatch
from ..errors import TimeoutExceeded
from ..hypergraph import Hypergraph

#: The reproduction-scale stand-in for the paper's 1-hour limit.
DEFAULT_TIMEOUT = 10.0


@dataclass
class QueryRecord:
    """Outcome of one (engine, query) execution."""

    engine: str
    dataset: str
    setting: str
    query_index: int
    elapsed: float
    embeddings: int
    completed: bool

    def charged_time(self, timeout: float) -> float:
        """Elapsed time with timeouts charged at the full limit, matching
        the paper's averaging rule."""
        return self.elapsed if self.completed else timeout


def run_with_timeout(
    runner: Callable[[], int],
    engine: str,
    dataset: str,
    setting: str,
    query_index: int,
    timeout: float = DEFAULT_TIMEOUT,
) -> QueryRecord:
    """Execute ``runner`` (which must respect its own time budget and raise
    :class:`TimeoutExceeded`), producing a :class:`QueryRecord`."""
    started = time.monotonic()
    try:
        embeddings = runner()
        completed = True
    except TimeoutExceeded:
        embeddings = -1
        completed = False
    elapsed = time.monotonic() - started
    return QueryRecord(
        engine=engine,
        dataset=dataset,
        setting=setting,
        query_index=query_index,
        elapsed=elapsed,
        embeddings=embeddings,
        completed=completed,
    )


def make_engine(data: Hypergraph, index_backend: str = "merge") -> HGMatch:
    """Build an HGMatch engine with the requested index backend
    (``merge``/``bitset``/``adaptive``).

    The harness reports paper figures, so the default is pinned to the
    paper-faithful ``merge`` backend and its ``postings`` cost model —
    not to the library default, which is the fast engine; benchmark
    modules that sweep backends name each one.
    """
    return HGMatch(data, index_backend=index_backend)


def run_hgmatch(
    engine: HGMatch,
    query: Hypergraph,
    dataset: str,
    setting: str,
    query_index: int,
    timeout: float = DEFAULT_TIMEOUT,
    counters: "MatchCounters | None" = None,
) -> QueryRecord:
    """Harness entry for HGMatch."""
    return run_with_timeout(
        lambda: engine.count(query, counters=counters, time_budget=timeout),
        "HGMatch",
        dataset,
        setting,
        query_index,
        timeout,
    )


def run_baseline(
    matcher,
    query: Hypergraph,
    dataset: str,
    setting: str,
    query_index: int,
    timeout: float = DEFAULT_TIMEOUT,
) -> QueryRecord:
    """Harness entry for any baseline with a ``count(query, time_budget)``."""
    return run_with_timeout(
        lambda: matcher.count(query, time_budget=timeout),
        matcher.name,
        dataset,
        setting,
        query_index,
        timeout,
    )


def average_time(records: Sequence[QueryRecord], timeout: float) -> float:
    """Average charged time over a record group (paper's metric)."""
    if not records:
        return 0.0
    return sum(record.charged_time(timeout) for record in records) / len(records)


def completion_ratio(records: Sequence[QueryRecord]) -> float:
    """Fraction of completed queries (Table IV)."""
    if not records:
        return 0.0
    return sum(1 for record in records if record.completed) / len(records)


def group_records(
    records: Sequence[QueryRecord],
) -> "dict[tuple[str, str, str], List[QueryRecord]]":
    """Group records by (engine, dataset, setting)."""
    grouped: "dict[tuple[str, str, str], List[QueryRecord]]" = {}
    for record in records:
        grouped.setdefault(
            (record.engine, record.dataset, record.setting), []
        ).append(record)
    return grouped
