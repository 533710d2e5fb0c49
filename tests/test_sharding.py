"""The sharded store: row-range slicing and shard-local Algorithm 4.

Pins the invariant the level-synchronous loop relies on: a signature
partition's shard slices concatenate back to the global partition, and
running candidate generation per shard then composing the shard-local
results (through the wire format, in global row coordinates) yields
exactly the global candidate set — Algorithm 4 distributes over the
row-disjoint split.
"""

from __future__ import annotations

import inspect
import random

import pytest

from repro import HGMatch
from repro.core.candidates import (
    CandidateAccumulator,
    candidate_set_from_bytes,
    compose_candidate_sets,
    generate_candidate_set,
    generate_candidates,
    vertex_step_map,
)
from repro.hypergraph import (
    INDEX_BACKENDS,
    PartitionedStore,
    StoreShard,
    shard_ranges,
)
from repro.testing import make_random_instance


def build_shards(graph, num_shards, index_backend=None, sharding=None):
    """Every row-range shard of ``graph``, each built independently,
    from the graph alone."""
    return [
        StoreShard.build(graph, shard_id, num_shards, index_backend, sharding)
        for shard_id in range(num_shards)
    ]


def assert_exact_cover(ranges, num_rows):
    """Disjoint exact cover of ``0 .. num_rows - 1`` by contiguous
    ranges (empty ranges legal)."""
    assert ranges[0][0] == 0
    assert ranges[-1][1] == num_rows
    for (low, high), (next_low, next_high) in zip(ranges, ranges[1:]):
        assert low <= high
        assert high == next_low  # contiguous, no gaps, no overlaps
        assert next_low <= next_high


class TestShardRanges:
    def test_balanced_contiguous_cover(self):
        for num_rows in (0, 1, 5, 10, 97):
            for num_shards in (1, 2, 3, 4, 7):
                ranges = shard_ranges(num_rows, num_shards)
                assert len(ranges) == num_shards
                assert_exact_cover(ranges, num_rows)
                sizes = [high - low for low, high in ranges]
                assert max(sizes) - min(sizes) <= 1  # balanced

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            shard_ranges(10, 0)


@pytest.mark.parametrize("backend", INDEX_BACKENDS)
class TestStoreShard:
    def test_slices_concatenate_to_global_partition(self, fig1_data, backend):
        full = PartitionedStore(fig1_data, index_backend=backend)
        sharded = build_shards(fig1_data, 3, backend)
        for signature, partition in full.partitions.items():
            concatenated = ()
            for shard in sharded:
                local = shard.partition(signature)
                if local is None:
                    continue
                assert shard.row_base(signature) == len(concatenated)
                concatenated += local.edge_ids
            assert concatenated == partition.edge_ids

    def test_shard_postings_are_row_restrictions(self, fig1_data, backend):
        full = PartitionedStore(fig1_data, index_backend=backend)
        sharded = build_shards(fig1_data, 2, backend)
        for signature, partition in full.partitions.items():
            for shard in sharded:
                local = shard.partition(signature)
                if local is None:
                    continue
                owned = set(local.edge_ids)
                for vertex in partition.index.vertices():
                    expected = tuple(
                        e for e in partition.incident_edges(vertex) if e in owned
                    )
                    assert local.incident_edges(vertex) == expected

    def test_index_size_splits_across_shards(self, fig1_data, backend):
        full = PartitionedStore(fig1_data, index_backend=backend)
        sharded = build_shards(fig1_data, 4, backend)
        assert (
            sum(shard.index_size_entries() for shard in sharded)
            == full.index_size_entries()
        )

    def test_more_shards_than_rows(self, fig1_data, backend):
        # Every partition of the Fig. 1 graph has a single row, so most
        # shards own nothing — and say so via None partitions.
        sharded = build_shards(fig1_data, 8, backend)
        signatures = {s for shard in sharded for s in shard.partitions}
        assert signatures == set(fig1_data.rows_by_signature())
        for signature in signatures:
            owners = [
                shard
                for shard in sharded
                if shard.partition(signature) is not None
            ]
            assert owners  # at least one shard owns each signature
            total = sum(s.cardinality(signature) for s in owners)
            assert total >= 1

    def test_build_shard_validates_shard_id(self, fig1_data, backend):
        with pytest.raises(ValueError):
            StoreShard.build(fig1_data, 3, 3, index_backend=backend)
        with pytest.raises(ValueError, match="sharding mode"):
            StoreShard.build(fig1_data, 0, 3, backend, "balanced")


@pytest.mark.parametrize("backend", INDEX_BACKENDS)
@pytest.mark.parametrize("sharding", ["uniform"])
def test_shard_candidates_compose_to_global(backend, sharding):
    """Per-shard Algorithm 4, shipped through the wire format and
    composed engine-side, equals the global candidate set on every probe
    of random enumerations — via both the barrier composition and the
    incremental accumulator, in any shard arrival order."""
    rng = random.Random(20260728)
    trials = 0
    while trials < 12:
        instance = make_random_instance(rng)
        if instance is None:
            continue
        trials += 1
        data, query = instance
        engine = HGMatch(data, index_backend=backend)
        num_shards = rng.choice((2, 3, 4))
        sharded = build_shards(data, num_shards, backend, sharding)
        plan = engine.plan(query)
        stack = [()]
        while stack:
            matched = stack.pop()
            step_plan = plan.steps[len(matched)]
            partition = engine.store.partition(step_plan.signature)
            vmap = vertex_step_map(data, matched)
            expected = generate_candidates(
                data, partition, step_plan, matched, vmap
            )
            shard_sets = []
            for shard in sharded:
                local = shard.partition(step_plan.signature)
                if local is None:
                    continue
                local_set = generate_candidate_set(
                    data, local, step_plan, matched, vmap
                )
                if not local_set:
                    continue
                payload = local_set.to_bytes(
                    row_offset=shard.row_base(step_plan.signature)
                )
                shard_sets.append(
                    candidate_set_from_bytes(
                        payload, None if partition is None else partition.index
                    )
                )
            composed = compose_candidate_sets(shard_sets)
            assert composed.to_tuple() == expected
            # The streaming accumulator must agree for every arrival
            # order (the as-completed gather gives no ordering promise).
            shuffled = list(shard_sets)
            rng.shuffle(shuffled)
            accumulator = CandidateAccumulator()
            for shard_set in shuffled:
                accumulator.add(shard_set)
            assert accumulator.result().to_tuple() == expected
            for extended in engine.expand(plan, matched):
                if len(extended) < plan.num_steps:
                    stack.append(extended)


@pytest.mark.parametrize("backend", INDEX_BACKENDS)
def test_duplicated_keyed_streams_fold_exactly_once(backend):
    """The dedup property: a reply stream that is shuffled AND
    duplicated (a twin reply answering the same level)
    folds to results bit-identical to the barrier composition when each
    contribution carries its shard id as the dedup key.  Without the
    key, duplicated tuple payloads would double their edges — the test
    would catch any executor that stops deduplicating."""
    rng = random.Random(20260807)
    trials = 0
    while trials < 8:
        instance = make_random_instance(rng)
        if instance is None:
            continue
        trials += 1
        data, query = instance
        engine = HGMatch(data, index_backend=backend)
        num_shards = rng.choice((2, 3, 4))
        sharded = build_shards(data, num_shards, backend)
        plan = engine.plan(query)
        stack = [()]
        while stack:
            matched = stack.pop()
            step_plan = plan.steps[len(matched)]
            partition = engine.store.partition(step_plan.signature)
            vmap = vertex_step_map(data, matched)
            payloads = []
            for shard in sharded:
                local = shard.partition(step_plan.signature)
                if local is None:
                    continue
                local_set = generate_candidate_set(
                    data, local, step_plan, matched, vmap
                )
                if not local_set:
                    continue
                payloads.append((
                    shard.shard_id,
                    local_set.to_bytes(
                        row_offset=shard.row_base(step_plan.signature)
                    ),
                ))
            index = None if partition is None else partition.index
            barrier = compose_candidate_sets([
                candidate_set_from_bytes(payload, index)
                for _, payload in payloads
            ])
            # Duplicate each reply 1-3x (fresh decode per copy — the
            # copies are byte-identical, never the same object), then
            # shuffle the whole stream.
            stream = []
            for shard_id, payload in payloads:
                for _ in range(rng.randint(1, 3)):
                    stream.append((shard_id, payload))
            rng.shuffle(stream)
            accumulator = CandidateAccumulator()
            for shard_id, payload in stream:
                accumulator.add(
                    candidate_set_from_bytes(payload, index), key=shard_id
                )
            assert accumulator.result().to_tuple() == barrier.to_tuple()
            for extended in engine.expand(plan, matched):
                if len(extended) < plan.num_steps:
                    stack.append(extended)


def _pool_facing_callables():
    from repro.parallel import (
        LocalCluster,
        ShardPool,
        ShardWorker,
        spawn_local_cluster,
    )
    from repro.service import MatchService

    return {
        "HGMatch": HGMatch,
        "HGMatch.pool": HGMatch.pool,
        "LocalCluster": LocalCluster,
        "ShardPool": ShardPool,
        "ShardWorker": ShardWorker,
        "spawn_local_cluster": spawn_local_cluster,
        "MatchService": MatchService,
    }


#: Knobs of the retired placement, replica grid and speculation.
RETIRED_KNOBS = (
    "sharding", "replicas", "num_replicas", "replica_id", "speculate_after",
)


@pytest.mark.parametrize("name", sorted(_pool_facing_callables()))
def test_no_placement_knob_outside_store_shard(name):
    """A pool member holds the whole graph and is named by one integer,
    so nothing is placed, replicated or speculated on: no pool-facing
    callable takes (or silently swallows) a retired knob.  The one
    ``sharding`` left is ``StoreShard.build``'s, whose ``"uniform"``
    row cut the layer trace still builds."""
    function = _pool_facing_callables()[name]
    parameters = inspect.signature(function).parameters
    assert not set(RETIRED_KNOBS) & set(parameters)
    assert all(
        parameter.kind is not inspect.Parameter.VAR_KEYWORD
        for parameter in parameters.values()
    )
    assert "sharding" in inspect.signature(StoreShard.build).parameters


class TestMemberIdentity:
    def test_descriptor_name_round_trips(self, fig1_data):
        """A pool member's name travels in its descriptor; the name
        never changes what the member holds."""
        from repro.parallel import ShardDescriptor

        store = PartitionedStore(fig1_data)
        base = ShardDescriptor.of(store)
        assert base.shard_id == 0
        named = ShardDescriptor.of(store, 2)
        assert named.shard_id == 2
        assert "replica_id" not in named.as_dict()
        assert (named.graph_edges, named.graph_version) == (
            base.graph_edges, base.graph_version,
        )
        assert ShardDescriptor.from_dict(named.as_dict()) == named
        with pytest.raises(KeyError):
            ShardDescriptor.from_dict({"shard_id": 0})
