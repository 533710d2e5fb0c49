"""Integration + property tests: every engine agrees with brute force.

This is the load-bearing correctness test of the reproduction: on
randomised (data, query) instances, HGMatch (sequential, strict, BFS,
threaded, simulated), the dataflow layer, and all four baselines must
produce the identical set of hyperedge-level embeddings — and the
vertex-level counts must also coincide.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import HGMatch
from repro.baselines import BASELINE_NAMES, brute_force, make_baseline
from repro.dataflow import run_query
from repro.parallel import SimulatedExecutor

from repro.testing import make_random_instance


def _skip_if_none(instance):
    if instance is None:
        pytest.skip("sampling failed for this seed")
    return instance


class TestRandomisedEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_all_engines_agree(self, seed):
        rng = random.Random(1000 + seed)
        instance = _skip_if_none(make_random_instance(rng))
        data, query = instance

        reference = brute_force(data, query)
        engine = HGMatch(data)

        hgmatch_tuples = {e.canonical() for e in engine.match(query, strict=True)}
        assert hgmatch_tuples == reference.hyperedge_tuples

        assert engine.count_bfs(query) == len(reference.hyperedge_tuples)
        assert run_query(engine, query) == len(reference.hyperedge_tuples)
        assert (
            engine.count(query, executor="threads", workers=3)
            == len(reference.hyperedge_tuples)
        )
        assert (
            SimulatedExecutor(3).run(engine, query).embeddings
            == len(reference.hyperedge_tuples)
        )

        for name in BASELINE_NAMES:
            matcher = make_baseline(name, data)
            assert matcher.hyperedge_embeddings(query) == reference.hyperedge_tuples, name
            assert matcher.count(query) == reference.vertex_embeddings, name

        assert engine.count_vertex_embeddings(query) == reference.vertex_embeddings


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 10_000))
def test_hgmatch_matches_brute_force_property(seed):
    """Hypothesis sweep: HGMatch (with strict certification) equals the
    unpruned reference on arbitrary random instances."""
    rng = random.Random(seed)
    instance = make_random_instance(rng, max_vertices=12)
    if instance is None:
        return
    data, query = instance
    reference = brute_force(data, query)
    engine = HGMatch(data)
    found = {e.canonical() for e in engine.match(query, strict=True)}
    assert found == reference.hyperedge_tuples


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 10_000), workers=st.integers(2, 6))
def test_parallel_equals_sequential_property(seed, workers):
    """Hypothesis sweep: the simulated executor is exact for any worker
    count (same task tree, virtual time only)."""
    rng = random.Random(seed)
    instance = make_random_instance(rng, max_vertices=12)
    if instance is None:
        return
    data, query = instance
    engine = HGMatch(data)
    expected = engine.count(query)
    assert SimulatedExecutor(workers).run(engine, query).embeddings == expected


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 10_000))
def test_matching_order_invariance_property(seed):
    """The embedding set is independent of the (connected) matching order."""
    from itertools import permutations

    from repro.core.ordering import is_connected_order

    rng = random.Random(seed)
    instance = make_random_instance(rng, max_vertices=12)
    if instance is None:
        return
    data, query = instance
    engine = HGMatch(data)
    baseline = {e.canonical() for e in engine.match(query)}
    for order in permutations(range(query.num_edges)):
        if not is_connected_order(query, order):
            continue
        found = {e.canonical() for e in engine.match(query, order=order)}
        assert found == baseline
