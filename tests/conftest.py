"""Shared fixtures: the paper's running example and small workloads.

The suite doubles as a backend matrix: ``REPRO_INDEX_BACKEND`` (merge /
bitset / adaptive) switches the default posting-list representation of
every store built without an explicit ``index_backend`` — CI runs the
whole tier-1 suite once per backend.  The env var is consumed at store
build time by :func:`repro.hypergraph.storage.default_index_backend`;
this conftest validates it up front so a typo fails the session
immediately instead of silently testing ``merge`` three times.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import signal

import pytest

from repro import HGMatch, Hypergraph
from repro.hypergraph import INDEX_BACKENDS, default_index_backend


def pytest_configure(config):
    backend = os.environ.get("REPRO_INDEX_BACKEND")
    if backend and backend not in INDEX_BACKENDS:
        raise pytest.UsageError(
            f"REPRO_INDEX_BACKEND={backend!r} is not one of {INDEX_BACKENDS}"
        )


def pytest_report_header(config):
    return f"repro index backend: {default_index_backend()}"


@pytest.fixture(autouse=True)
def no_worker_process_outlives_its_test():
    """Process hygiene: a test must leave behind no worker process it
    started — every pool, cluster, supervisor and service it opened is
    closed by the time it returns.  (Workers of a wider-scoped fixture
    predate the test and are that fixture's to stop.)"""
    before = set(multiprocessing.active_children())
    yield
    leaked = [
        child for child in multiprocessing.active_children()
        if child not in before
    ]
    for child in leaked:
        child.join(timeout=1.0)  # told to quit and on its way out: no leak
    leaked = [child for child in leaked if child.is_alive()]
    for child in leaked:
        child.kill()  # do not let one leak fail every later test too
    assert not leaked, f"worker processes outlived the test: {leaked}"


@pytest.fixture
def fig1_data() -> Hypergraph:
    """The data hypergraph of the paper's Fig. 1b.

    Vertices v0..v6 labelled A C A A B C A; hyperedges (0-based ids):
    e0={v2,v4}, e1={v4,v6}, e2={v0,v1,v2}, e3={v3,v5,v6},
    e4={v0,v1,v4,v6}, e5={v2,v3,v4,v5}.
    """
    return Hypergraph(
        labels=["A", "C", "A", "A", "B", "C", "A"],
        edges=[{2, 4}, {4, 6}, {0, 1, 2}, {3, 5, 6}, {0, 1, 4, 6}, {2, 3, 4, 5}],
    )


@pytest.fixture
def fig1_query() -> Hypergraph:
    """The query hypergraph of Fig. 1a: u0..u4 labelled A C A A B with
    hyperedges {u2,u4}, {u0,u1,u2}, {u0,u1,u3,u4}."""
    return Hypergraph(
        labels=["A", "C", "A", "A", "B"],
        edges=[{2, 4}, {0, 1, 2}, {0, 1, 3, 4}],
    )


@pytest.fixture
def fig1_engine(fig1_data) -> HGMatch:
    return HGMatch(fig1_data)


@pytest.fixture
def small_rng() -> random.Random:
    return random.Random(20230612)


# make_random_instance moved to repro.testing: importing it from a
# conftest is ambiguous when benchmarks/conftest.py is also on sys.path.


@pytest.fixture
def kill_mid_job(monkeypatch):
    """``arm(executor, victim, then=...)``: the ``victim``-th worker of
    the executor's own cluster dies right after the next job's SUBTREE
    requests went out (a mid-job loss); returns a dict whose
    ``"killed"`` flips to True.

    The seam is the one dispatch there is — ``QueryChannel._send_parts``;
    an executor is the pool and dispatches nothing itself.  The kill is
    by pid, with no join: the pool's pump sees the death at once and
    its respawn reaps the process from its own thread — a ``Process``
    object must not be polled from two.
    """
    from repro.parallel import QueryChannel

    def arm(executor, victim, then=lambda: None):
        original = QueryChannel._send_parts
        state = {"killed": False}

        def send_parts(channel, query, order):
            original(channel, query, order)
            if not state["killed"]:
                state["killed"] = True
                os.kill(
                    executor._cluster.processes[victim].pid, signal.SIGKILL
                )
                then()

        monkeypatch.setattr(QueryChannel, "_send_parts", send_parts)
        return state

    return arm


@pytest.fixture
def pool_route(monkeypatch):
    """Route every match-service miss to the pool as a subtree job —
    no query is cheap enough for the inline route — for the tests that
    pin frames, faults, deadlines or cancellation on small queries."""
    from repro.service import service

    monkeypatch.setattr(service, "INLINE_COST", 0)
