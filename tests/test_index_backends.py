"""Equivalence of the merge, bitset and adaptive index backends.

Every non-merge backend must be an exact drop-in: identical candidate
tuples from ``generate_candidates`` at every step of every expansion,
and identical embedding counts across the sequential, BFS and threaded
engines.  Seeded random instances keep the corpus reproducible.  The
adaptive backend additionally gets container-level unit tests (array ↔
bitmask choices, chunking, persistence of representation decisions).
"""

from __future__ import annotations

import random

import pytest

from repro import HGMatch, Hypergraph, PartitionedStore
from repro.core.candidates import (
    AnchorUnionMemo,
    generate_candidate_set,
    generate_candidates,
    vertex_step_map,
    vertex_step_tuples,
)
from repro.hypergraph import (
    DEFAULT_INDEX_BACKEND,
    AdaptiveHyperedgeIndex,
    BitsetHyperedgeIndex,
    InvertedHyperedgeIndex,
    default_index_backend,
)
from repro.hypergraph.index import (
    ARRAY_CONTAINER_MAX,
    chunks_count,
    chunks_intersect,
    chunks_union_many,
    container_intersect,
    container_union,
)
from repro.testing import make_random_instance

SEEDS = range(10)
ALT_BACKENDS = ("bitset", "adaptive")
INDEX_CLASSES = {
    "merge": InvertedHyperedgeIndex,
    "bitset": BitsetHyperedgeIndex,
    "adaptive": AdaptiveHyperedgeIndex,
}


def _instance(seed: int):
    instance = make_random_instance(random.Random(7000 + seed), max_vertices=14)
    if instance is None:
        pytest.skip("sampling failed for this seed")
    return instance


class TestIndexEquality:
    @pytest.mark.parametrize("backend", ALT_BACKENDS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_postings_identical(self, seed, backend):
        data, _ = _instance(seed)
        merge_store = PartitionedStore(data, index_backend="merge")
        other_store = PartitionedStore(data, index_backend=backend)
        for signature, partition in merge_store.partitions.items():
            other = other_store.partition(signature)
            assert other is not None
            assert isinstance(partition.index, InvertedHyperedgeIndex)
            assert isinstance(other.index, INDEX_CLASSES[backend])
            assert set(partition.index.vertices()) == set(other.index.vertices())
            for vertex in partition.index.vertices():
                assert partition.index.postings(vertex) == other.index.postings(
                    vertex
                )
                assert partition.index.postings_count(
                    vertex
                ) == other.index.postings_count(vertex)
            assert partition.index.num_entries == other.index.num_entries


class TestCandidateEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_identical_candidate_tuples_at_every_step(self, seed):
        """Walk the full enumeration tree under the merge backend and
        replay every (step, partial) probe against the other backends."""
        data, query = _instance(seed)
        merge_engine = HGMatch(data, index_backend="merge")
        others = {
            backend: HGMatch(data, index_backend=backend)
            for backend in ALT_BACKENDS
        }
        plan = merge_engine.plan(query)

        probes = 0
        stack = [()]
        while stack:
            matched = stack.pop()
            step_plan = plan.steps[len(matched)]
            merge_part = merge_engine.store.partition(step_plan.signature)
            vmap = vertex_step_map(data, matched)
            merge_candidates = generate_candidates(
                data, merge_part, step_plan, matched, vmap
            )
            assert list(merge_candidates) == sorted(set(merge_candidates))
            for backend, engine in others.items():
                part = engine.store.partition(step_plan.signature)
                candidates = generate_candidates(
                    data, part, step_plan, matched, vmap
                )
                assert candidates == merge_candidates, backend
                # The mask-native boundary must agree with its own decode.
                candidate_set = generate_candidate_set(
                    data, part, step_plan, matched, vmap
                )
                assert candidate_set.to_tuple() == merge_candidates
                assert tuple(candidate_set) == merge_candidates
                assert len(candidate_set) == len(merge_candidates)
            probes += 1
            for extended in merge_engine.expand(plan, matched):
                if len(extended) < plan.num_steps:
                    stack.append(extended)
        assert probes >= 1

    @pytest.mark.parametrize("backend", ALT_BACKENDS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_memoised_algebra_matches_unmemoised(self, seed, backend):
        """A shared anchor-union memo must never change a result set
        (min_rows=0 forces it on even for tiny partitions)."""
        data, query = _instance(seed)
        engine = HGMatch(data, index_backend=backend)
        plan = engine.plan(query)
        memo = AnchorUnionMemo(min_rows=0)
        stack = [()]
        while stack:
            matched = stack.pop()
            step_plan = plan.steps[len(matched)]
            part = engine.store.partition(step_plan.signature)
            vmap = vertex_step_map(data, matched)
            plain = generate_candidate_set(
                data, part, step_plan, matched, vmap
            ).to_tuple()
            memoised = generate_candidate_set(
                data, part, step_plan, matched, vmap, memo=memo
            ).to_tuple()
            assert memoised == plain
            for extended in engine.expand(plan, matched):
                if len(extended) < plan.num_steps:
                    stack.append(extended)
        if memo.hits:
            assert len(memo) <= memo.maxsize


class TestEngineEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_identical_embeddings_across_engines_and_workers(self, seed):
        data, query = _instance(seed)
        engines = {
            backend: HGMatch(data, index_backend=backend)
            for backend in ("merge",) + ALT_BACKENDS
        }
        embeddings = {
            backend: {e.canonical() for e in engine.match(query, strict=True)}
            for backend, engine in engines.items()
        }
        assert embeddings["bitset"] == embeddings["merge"]
        assert embeddings["adaptive"] == embeddings["merge"]

        reference = len(embeddings["merge"])
        for engine in engines.values():
            for workers in (1, 4):
                assert engine.count(query, workers=workers) == reference
            assert engine.count_bfs(query) == reference


class TestAnchorUnionMemo:
    def test_lru_eviction_and_stats(self):
        memo = AnchorUnionMemo(maxsize=2, min_rows=0)
        assert memo.get("a") is AnchorUnionMemo._MISS
        memo.put("a", 1)
        memo.put("b", 2)
        assert memo.get("a") == 1  # refreshes recency
        memo.put("c", 3)  # evicts "b", the least recently used
        assert memo.get("b") is AnchorUnionMemo._MISS
        assert memo.get("a") == 1
        assert memo.get("c") == 3
        assert memo.hits == 3
        assert memo.misses == 2
        assert len(memo) == 2
        memo.clear()
        assert len(memo) == 0

    def test_falsy_masks_are_cached(self):
        memo = AnchorUnionMemo(min_rows=0)
        memo.put("zero", 0)
        memo.put("empty", ())
        assert memo.get("zero") == 0
        assert memo.get("empty") == ()

    def test_engine_memo_disabled_below_min_rows(self, fig1_data, fig1_query):
        """Fig. 1 partitions are tiny, so the engine's default memo must
        stay untouched (the small-partition bypass)."""
        engine = HGMatch(fig1_data, index_backend="bitset")
        assert engine.count(fig1_query) == 2
        assert engine._anchor_memo.hits == 0
        assert engine._anchor_memo.misses == 0


class TestAdaptiveContainers:
    def test_density_decides_representation(self):
        """More than ARRAY_CONTAINER_MAX postings in a chunk → bitmask."""
        dense = ARRAY_CONTAINER_MAX + 1
        labels = ["A"] * (dense + 2)
        hub = dense  # vertex in every edge
        spoke = dense + 1  # vertex in one edge
        edges = [{i, hub} for i in range(dense)]
        edges[0] = {0, hub, spoke}
        graph = Hypergraph(labels, edges)
        index = AdaptiveHyperedgeIndex.build(graph, tuple(range(dense)))
        kinds = index.container_kinds()
        assert kinds[hub] == ((0, "bits"),)
        assert kinds[spoke] == ((0, "array"),)
        assert index.postings(hub) == tuple(range(dense))
        assert index.postings(spoke) == (0,)
        assert index.flat_containers is not None

    def test_multi_chunk_round_trip(self):
        """With tiny chunks the index spans several chunks and the chunk
        algebra must still decode the exact posting lists."""
        rng = random.Random(42)
        num_edges = 23
        labels = ["A"] * 6
        edges = []
        seen = set()
        while len(edges) < num_edges:
            edge = frozenset(rng.sample(range(6), rng.randint(2, 4)))
            if edge not in seen:
                seen.add(edge)
                edges.append(set(edge))
        graph = Hypergraph(labels, edges)
        index = AdaptiveHyperedgeIndex.build(
            graph, tuple(range(num_edges)), chunk_bits=2, array_max=2
        )
        assert index.flat_containers is None
        reference = InvertedHyperedgeIndex.build(graph, tuple(range(num_edges)))
        assert set(index.vertices()) == set(reference.vertices())
        for vertex in reference.vertices():
            assert index.postings(vertex) == reference.postings(vertex)
            assert index.postings_count(vertex) == reference.postings_count(
                vertex
            )
            chunks = index.postings_chunks(vertex)
            assert chunks_count(chunks) == reference.postings_count(vertex)
        # Chunk-map algebra against Python-set semantics.
        verts = sorted(reference.vertices())
        for a in verts:
            for b in verts:
                union = chunks_union_many(
                    [index.postings_chunks(a), index.postings_chunks(b)], 2
                )
                expected = sorted(
                    set(reference.postings(a)) | set(reference.postings(b))
                )
                assert list(index.decode_chunks(union)) == expected
                inter = chunks_intersect(
                    index.postings_chunks(a), index.postings_chunks(b)
                )
                expected = sorted(
                    set(reference.postings(a)) & set(reference.postings(b))
                )
                assert list(index.decode_chunks(inter)) == expected

    @pytest.mark.parametrize("array_max", (1, 2, 10_000))
    @pytest.mark.parametrize("seed", range(5))
    def test_flat_fold_equivalent_at_container_extremes(self, seed, array_max):
        """The anchor-union fold inlined in the adaptive candidates fast
        path (see _generate_candidates_adaptive) must match the merge
        backend whatever mix of array and bitmask containers the index
        holds.  array_max=1 forces (almost) all-bitmask indexes,
        array_max=10_000 all-array, 2 a mix — together they walk every
        branch of the inline fold that mirrors containers_union_many."""
        from repro.hypergraph.storage import HyperedgePartition

        data, query = _instance(seed)
        merge_engine = HGMatch(data, index_backend="merge")
        plan = merge_engine.plan(query)
        rebuilt = {
            signature: HyperedgePartition(
                signature,
                partition.edge_ids,
                AdaptiveHyperedgeIndex.build(
                    data, partition.edge_ids, array_max=array_max
                ),
            )
            for signature, partition in merge_engine.store.partitions.items()
        }
        stack = [()]
        while stack:
            matched = stack.pop()
            step_plan = plan.steps[len(matched)]
            merge_part = merge_engine.store.partition(step_plan.signature)
            vmap = vertex_step_map(data, matched)
            reference = generate_candidates(
                data, merge_part, step_plan, matched, vmap
            )
            adaptive = generate_candidate_set(
                data, rebuilt[step_plan.signature], step_plan, matched, vmap
            )
            assert adaptive.to_tuple() == reference
            for extended in merge_engine.expand(plan, matched):
                if len(extended) < plan.num_steps:
                    stack.append(extended)

    def test_empty_posting_list_round_trips(self):
        """A persisted ``i <vertex>`` record with zero postings must load
        into every backend identically (regression: the adaptive
        single-chunk fast path crashed on it)."""
        from repro.hypergraph.index import index_from_postings

        postings = {0: (10, 20), 5: ()}
        for backend in ("merge",) + ALT_BACKENDS:
            index = index_from_postings(backend, (10, 20, 30), postings)
            assert index.postings(5) == ()
            assert index.postings_count(5) == 0
            assert index.postings(0) == (10, 20)
            assert 5 in index

    def test_container_pairwise_ops(self):
        """All four container-kind pairings of | and &."""
        array = (1, 3)
        other = (3, 5)
        bits_a = 0b101010  # {1, 3, 5}
        bits_b = 0b001010  # {1, 3}
        assert container_union(array, other, array_max=8) == (1, 3, 5)
        assert container_union(array, other, array_max=2) == 0b101010
        assert container_union(array, bits_a, array_max=8) == 0b101010
        assert container_union(bits_a, bits_b, array_max=8) == 0b101010
        assert container_intersect(array, other) == (3,)
        assert container_intersect(array, bits_a) == (1, 3)
        assert container_intersect(bits_a, array) == (1, 3)
        assert container_intersect(bits_a, bits_b) == 0b001010


class TestVertexStepState:
    """The push/pop-delta map must always equal the from-scratch rebuild."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_advance_matches_full_rebuild(self, seed):
        from repro.core.candidates import VertexStepState

        data, query = _instance(seed)
        engine = HGMatch(data)
        plan = engine.plan(query)
        state = VertexStepState(data)
        stack = [()]
        while stack:
            matched = stack.pop()
            assert state.advance(matched) == vertex_step_map(data, matched)
            assert state.step_tuples == vertex_step_tuples(data, matched)
            assert state.matched == matched
            for extended in engine.expand(plan, matched):
                if len(extended) < plan.num_steps:
                    stack.append(extended)

    def test_push_pop_roundtrip(self, fig1_data):
        from repro.core.candidates import VertexStepState

        state = VertexStepState(fig1_data, matched_edges=(0, 2))
        assert state.vmap == vertex_step_map(fig1_data, (0, 2))
        assert state.step_tuples == vertex_step_tuples(fig1_data, (0, 2))
        state.push(4)
        assert state.vmap == vertex_step_map(fig1_data, (0, 2, 4))
        assert state.step_tuples == vertex_step_tuples(fig1_data, (0, 2, 4))
        assert state.pop() == 4
        assert state.vmap == vertex_step_map(fig1_data, (0, 2))
        state.advance(())
        assert state.vmap == {}
        assert state.step_tuples == {}
        assert state.depth == 0

    def test_step_tuples_stay_sorted(self, fig1_data):
        for matched in [(0,), (0, 2), (0, 2, 4), (5, 3)]:
            tuples = vertex_step_tuples(fig1_data, matched)
            for vertex, steps in tuples.items():
                assert steps == tuple(sorted(steps))
                assert set(steps) == vertex_step_map(fig1_data, matched)[vertex]


class TestStoreBackedFilters:
    @pytest.mark.parametrize("backend", ("merge",) + ALT_BACKENDS)
    @pytest.mark.parametrize("seed", range(5))
    def test_ihs_candidates_match_with_store(self, seed, backend):
        """Posting-mask signature pruning must equal the Counter-based
        containment check on every pool."""
        from repro.baselines import ihs_candidates

        data, query = _instance(seed)
        store = PartitionedStore(data, index_backend=backend)
        plain = ihs_candidates(query, data)
        with_store = ihs_candidates(query, data, store=store)
        assert with_store == plain

    def test_baselines_accept_store(self, fig1_data, fig1_query):
        from repro.baselines import make_baseline

        store = PartitionedStore(fig1_data, index_backend="bitset")
        for name in ("CFL-H", "DAF-H", "CECI-H"):
            plain = make_baseline(name, fig1_data)
            masked = make_baseline(name, fig1_data, store=store)
            assert masked.hyperedge_embeddings(
                fig1_query
            ) == plain.hyperedge_embeddings(fig1_query)


class TestPersistenceRoundTrip:
    @pytest.mark.parametrize("backend", ("merge",) + ALT_BACKENDS)
    def test_store_loads_from_disk_into_any_backend(self, fig1_data, tmp_path, backend):
        from repro.hypergraph import load_store, save_store, stores_equal

        store = PartitionedStore(fig1_data, index_backend=backend)
        path = str(tmp_path / "fig1.hgstore")
        save_store(store, path)
        for target in ("merge",) + ALT_BACKENDS:
            loaded = load_store(path, index_backend=target)
            assert loaded.index_backend == target
            assert stores_equal(store, loaded)

    @pytest.mark.parametrize("seed", range(5))
    def test_adaptive_container_choices_survive(self, seed, tmp_path):
        """The array/bitmask decision per chunk is a pure function of the
        posting lists, so a save/load round trip reproduces it exactly."""
        from repro.hypergraph import load_store, save_store

        data, _ = _instance(seed)
        store = PartitionedStore(data, index_backend="adaptive")
        path = str(tmp_path / "instance.hgstore")
        save_store(store, path)
        loaded = load_store(path, index_backend="adaptive")
        assert loaded.index_backend == "adaptive"
        for signature, partition in store.partitions.items():
            other = loaded.partition(signature)
            assert isinstance(other.index, AdaptiveHyperedgeIndex)
            assert other.index.container_kinds() == partition.index.container_kinds()


class TestBackendSelection:
    def test_unknown_backend_rejected(self, fig1_data):
        with pytest.raises(ValueError):
            PartitionedStore(fig1_data, index_backend="roaring")

    def test_engine_reports_backend(self, fig1_data):
        assert HGMatch(fig1_data).index_backend == default_index_backend()
        for backend in ALT_BACKENDS:
            assert (
                HGMatch(fig1_data, index_backend=backend).index_backend
                == backend
            )

    def test_env_variable_sets_default(self, fig1_data, monkeypatch):
        monkeypatch.setenv("REPRO_INDEX_BACKEND", "adaptive")
        assert default_index_backend() == "adaptive"
        assert HGMatch(fig1_data).index_backend == "adaptive"
        monkeypatch.delenv("REPRO_INDEX_BACKEND")
        assert default_index_backend() == DEFAULT_INDEX_BACKEND == "bitset"

    def test_plan_carries_backend(self, fig1_data, fig1_query):
        for backend in ALT_BACKENDS:
            engine = HGMatch(fig1_data, index_backend=backend)
            plan = engine.plan(fig1_query)
            assert plan.index_backend == backend
            assert backend in plan.describe()
