"""Funnel counters and the count-only sink are pinned across the kernel
changes: the numbers below were recorded on the commit *before* the
shared-vertex kernel (PR 11, ``59d05da``) by summing ``MatchCounters``
over the Fig. 8 trace, and must never move — ``work_units`` feeds the
simulated executor's virtual clock, the rest are the paper's Fig. 9
funnel.  ``("bitset", "sequential")`` was re-pinned (324882 before)
when ``HGMatch.count`` became a block-DFS over the frontier-batched
block step: its wide blocks run the frontier orientation
in-process and charge the mask operations that orientation performs —
parent bits indexed, planes derived, row vertices probed — and nothing
per candidate; the funnel and every ``merge``/``adaptive`` pin did not
move.  Both
``"processes"`` keys were re-pinned (774796 / 80848 before) when
``count(executor="processes")`` became a subtree job (PR 23): each of
the two workers runs the sequential block-DFS below every other root
candidate, and only part 0 charges the step-0 scan and the root task —
so ``merge`` (blocks of one) now charges exactly the sequential
engine's postings, and ``bitset`` what the orientations picked for the
two halves' narrower blocks perform; the funnel did not move.
``("bitset", "threads")`` is pinned *equal to* ``("bitset",
"processes")``: ``workers=2`` threads and ``shards=2`` workers run the
same two root parts, so even the block-dependent units agree — one cut,
wherever a part runs.  ``("bitset", "count_bfs")``, ``("bitset",
"simulated")`` and the ``adaptive`` parallel keys were recorded on the
last commit that still had the level-synchronous pool protocol, when
the pool became a flat list of whole-graph members, and no executor's
units moved with the protocol's removal.  The engines
built without a backend run the library default (``bitset`` unless ``REPRO_INDEX_BACKEND`` says
otherwise).
"""

from __future__ import annotations

import pytest

from repro import HGMatch, MatchCounters
from repro.bench.fig8 import fig8_queries
from repro.core import engine as engine_module
from repro.datasets import load_dataset
from repro.errors import TimeoutExceeded

FIELDS = (
    "candidates", "filtered", "final_candidates", "final_filtered",
    "embeddings", "tasks", "work_units",
)
FUNNEL = (96028, 39534, 85614, 35649, 34251, 3553)
#: ``(backend, mode) -> work_units``; a subtree job's parts add up to
#: the sequential search on merge (blocks of one); bitset runs most
#: blocks batched over the frontier, in-process and in the workers, and
#: charges per block — so its units depend on where the blocks are cut.
WORK_UNITS = {
    ("merge", "sequential"): 711884,
    ("merge", "count_bfs"): 711884,
    ("merge", "threads"): 711884,
    ("merge", "processes"): 711884,
    ("merge", "simulated"): 711884,
    ("bitset", "sequential"): 92396,
    ("bitset", "count_bfs"): 92396,
    ("bitset", "threads"): 105106,
    ("bitset", "processes"): 105106,
    ("bitset", "simulated"): 324882,
    ("adaptive", "sequential"): 324882,
    ("adaptive", "count_bfs"): 324882,
    ("adaptive", "threads"): 324882,
    ("adaptive", "processes"): 324882,
    ("adaptive", "simulated"): 324882,
}
MODES = {
    "sequential": lambda e, q, c: e.count(q, counters=c),
    "count_bfs": lambda e, q, c: e.count_bfs(q, counters=c),
    "threads": lambda e, q, c: e.count(q, counters=c, executor="threads", workers=2),
    "processes": lambda e, q, c: e.count(q, counters=c, executor="processes"),
    "simulated": lambda e, q, c: e.count(q, counters=c, executor="simulated", workers=2),
}


@pytest.fixture(scope="module")
def trace():
    return fig8_queries()


@pytest.mark.parametrize("backend,mode", sorted(WORK_UNITS))
def test_fig8_counters_match_the_parent_commit(trace, backend, mode):
    engines = {}
    total = MatchCounters()
    try:
        for name, query in trace:
            if name not in engines:
                engines[name] = HGMatch(
                    load_dataset(name), index_backend=backend, shards=2
                )
            counters = MatchCounters()
            MODES[mode](engines[name], query, counters)
            total.merge(counters)
    finally:
        for engine in engines.values():
            engine.close()
    observed = tuple(getattr(total, field) for field in FIELDS)
    assert observed == FUNNEL + (WORK_UNITS[backend, mode],)


def test_count_equals_match_equals_count_bfs(trace):
    engines = {}
    for name, query in trace:
        engine = engines.setdefault(name, HGMatch(load_dataset(name)))
        count = engine.count(query)
        assert count == sum(1 for _ in engine.match(query))
        assert count == engine.count_bfs(query)


def test_count_only_path_builds_no_embedding(trace, monkeypatch):
    built = []
    original = engine_module.Embedding.__init__

    def counting_init(self, *args):
        built.append(args[-1])
        original(self, *args)

    monkeypatch.setattr(engine_module.Embedding, "__init__", counting_init)
    name, query = trace[0]
    engine = HGMatch(load_dataset(name))
    counters = MatchCounters()
    count = engine.count(query, counters=counters)
    assert count > 0 and counters.embeddings == count and counters.tasks > 0
    assert built == []
    assert len(list(engine.match(query))) == count == len(built)


def test_count_only_path_still_times_out(trace):
    name, query = max(trace, key=lambda item: item[1].num_edges)
    with pytest.raises(TimeoutExceeded):
        HGMatch(load_dataset(name)).count(query, time_budget=0.0)


@pytest.mark.parametrize("spelling", [
    dict(executor="processes"),
    dict(executor="threads", workers=2),
])
def test_a_caller_without_counters_gets_the_count_and_no_funnel(
    trace, monkeypatch, spelling
):
    """No counters, no funnel: neither the engine nor a thread part nor
    a pool member builds a ``MatchCounters``, and the count is the
    sequential one.  The patched constructor raises, so one built in a
    member (forked after the patch) fails the query as a QERROR."""
    engines = {name: HGMatch(load_dataset(name), shards=2) for name, _ in trace}
    try:
        expected = [engines[name].count(query) for name, query in trace]

        def no_funnel(self, *args, **kwargs):
            raise AssertionError("a MatchCounters was built")

        monkeypatch.setattr(MatchCounters, "__init__", no_funnel)
        assert [
            engines[name].count(query, **spelling) for name, query in trace
        ] == expected
    finally:
        for engine in engines.values():
            engine.close()
