"""The sharded store: row-range slicing and shard-local Algorithm 4.

Pins the invariant the multiprocess executor relies on: a signature
partition's shard slices concatenate back to the global partition, and
running candidate generation per shard then composing the shard-local
results (through the wire format, in global row coordinates) yields
exactly the global candidate set — Algorithm 4 distributes over the
row-disjoint split.
"""

from __future__ import annotations

import dataclasses
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
    SHARDING_MODES,
    PartitionedStore,
    StoreShard,
    balanced_range_table,
    build_range_table,
    range_table_label,
    range_table_slices,
    rebalance_range_table,
    shard_ranges,
    weighted_shard_ranges,
)
from repro.testing import make_random_instance


def build_shards(graph, num_shards, index_backend=None, sharding=None):
    """Every row-range shard of ``graph``, each built the way a pool's
    worker builds its own — independently, from the graph alone."""
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


class TestWeightedShardRanges:
    def test_exact_cover_for_arbitrary_weights(self):
        """The core placement invariant: any non-negative weights —
        zeros, spikes, all-zero partitions — and any shard count
        (including more shards than rows) yield a disjoint exact
        cover."""
        rng = random.Random(20260728)
        for _ in range(400):
            num_shards = rng.randint(1, 9)
            num_rows = rng.randint(0, 50)
            weights = [
                rng.choice((0, 0, 1, 2, 3, 7, 100, 10**6))
                for _ in range(num_rows)
            ]
            capacities = None
            if rng.random() < 0.5:
                capacities = [
                    rng.choice((0, 0.25, 1.0, 3.0))
                    for _ in range(num_shards)
                ]
            ranges = weighted_shard_ranges(
                weights, num_shards, capacities=capacities
            )
            assert len(ranges) == num_shards
            assert_exact_cover(ranges, num_rows)

    def test_zero_mass_falls_back_to_uniform(self):
        assert weighted_shard_ranges((0, 0, 0, 0), 2) == shard_ranges(4, 2)
        assert weighted_shard_ranges((), 3) == shard_ranges(0, 3)
        assert weighted_shard_ranges(
            (1, 1), 2, capacities=(0, 0)
        ) == shard_ranges(2, 2)

    def test_weight_proportional_cut(self):
        # One heavy row outweighs four light ones: it gets its own range.
        assert weighted_shard_ranges((1, 1, 1, 1, 4), 2) == ((0, 4), (4, 5))

    def test_capacity_proportional_cut(self):
        ranges = weighted_shard_ranges((1,) * 8, 2, capacities=(3, 1))
        assert ranges == ((0, 6), (6, 8))

    def test_zero_capacity_yields_empty_range(self):
        ranges = weighted_shard_ranges((1,) * 6, 3, capacities=(0, 1, 1))
        assert ranges[0] == (0, 0)
        assert_exact_cover(ranges, 6)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            weighted_shard_ranges((1, 2), 0)
        with pytest.raises(ValueError):
            weighted_shard_ranges((1, -1), 2)
        with pytest.raises(ValueError):
            weighted_shard_ranges((1, 1), 2, capacities=(1,))
        with pytest.raises(ValueError):
            weighted_shard_ranges((1, 1), 2, capacities=(1, -2))


class TestRangeTables:
    def _random_grouped(self, rng):
        """A synthetic signature grouping with skewed shapes."""
        grouped = {}
        next_edge = 0
        for index in range(rng.randint(1, 8)):
            arity = rng.choice((1, 2, 3, 8, 64))
            rows = rng.randint(1, 20)
            signature = tuple(["L"] * arity + [index])
            grouped[signature] = list(range(next_edge, next_edge + rows))
            next_edge += rows
        return grouped

    def test_balanced_table_is_exact_cover(self):
        rng = random.Random(42)
        for _ in range(60):
            grouped = self._random_grouped(rng)
            num_shards = rng.randint(1, 6)
            table = balanced_range_table(grouped, num_shards)
            assert set(table) == set(grouped)
            for signature, ranges in table.items():
                assert len(ranges) == num_shards
                # Positional (range-order) concatenation covers exactly.
                ordered = sorted(ranges)
                assert_exact_cover(
                    tuple(ordered), len(grouped[signature])
                )

    def test_balanced_table_is_deterministic(self):
        rng = random.Random(7)
        grouped = self._random_grouped(rng)
        assert balanced_range_table(grouped, 4) == balanced_range_table(
            dict(reversed(list(grouped.items()))), 4
        )

    def test_rebalanced_table_preserves_cover_and_positions(self):
        rng = random.Random(99)
        for _ in range(60):
            grouped = self._random_grouped(rng)
            num_shards = rng.randint(1, 6)
            mode = rng.choice(SHARDING_MODES)
            table = build_range_table(grouped, num_shards, mode)
            loads = [rng.choice((0.0, 0.5, 1.0, 4.0)) for _ in range(num_shards)]
            recut = rebalance_range_table(grouped, table, loads)
            assert set(recut) == set(table)
            for signature, ranges in recut.items():
                ordered = sorted(ranges)
                assert_exact_cover(
                    tuple(ordered), len(grouped[signature])
                )
                # Positions hold: each shard keeps its rank along the
                # row axis, only boundaries move.
                before = sorted(
                    range(num_shards),
                    key=lambda s: (table[signature][s], s),
                )
                after = sorted(
                    range(num_shards),
                    key=lambda s: (ranges[s], s),
                )
                non_empty_before = [
                    s for s in before
                    if table[signature][s][0] < table[signature][s][1]
                ]
                non_empty_after = [
                    s for s in after if ranges[s][0] < ranges[s][1]
                ]
                # Any shard owning rows both before and after must keep
                # its relative order.
                common = set(non_empty_before) & set(non_empty_after)
                assert [
                    s for s in non_empty_before if s in common
                ] == [s for s in non_empty_after if s in common]

    def test_rebalance_moves_mass_off_the_hot_shard(self):
        grouped = {("A", "A"): list(range(100))}
        table = build_range_table(grouped, 4, "uniform")
        recut = rebalance_range_table(grouped, table, [4.0, 1.0, 1.0, 1.0])
        sizes = [high - low for low, high in recut[("A", "A")]]
        assert sizes[0] < 25  # the hot shard sheds rows
        assert sum(sizes) == 100

    def test_rebalance_noop_on_balanced_loads(self):
        grouped = {("A",): list(range(8)), ("B", "B"): list(range(8, 14))}
        table = build_range_table(grouped, 2, "uniform")
        assert rebalance_range_table(grouped, table, [0.0, 0.0]) == table

    def test_label_tracks_boundaries(self):
        grouped = {("A", "A"): list(range(10))}
        uniform = build_range_table(grouped, 2, "uniform")
        recut = rebalance_range_table(grouped, uniform, [3.0, 1.0])
        assert range_table_label(uniform, grouped) != range_table_label(
            recut, grouped
        )
        assert range_table_label(recut, grouped).startswith("rebalanced-")
        assert range_table_label(recut, grouped) == range_table_label(
            dict(recut), grouped
        )

    def test_slices_drop_empty_ranges(self):
        grouped = {("A",): list(range(2))}
        table = build_range_table(grouped, 4, "uniform")
        slices = range_table_slices(table, 4)
        assert slices[0] == {("A",): (0, 1)}
        assert slices[1] == {("A",): (1, 2)}
        assert slices[2] == {} and slices[3] == {}


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


@pytest.mark.parametrize("backend", INDEX_BACKENDS)
@pytest.mark.parametrize("sharding", SHARDING_MODES)
def test_shard_candidates_compose_to_global(backend, sharding):
    """Per-shard Algorithm 4, shipped through the wire format and
    composed engine-side, equals the global candidate set on every probe
    of random enumerations — under either placement mode, via both the
    barrier composition and the incremental accumulator, in any shard
    arrival order."""
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
def test_balanced_store_slices_concatenate_in_range_order(
    fig1_data, backend
):
    """Balanced placement permutes which shard owns which range, but
    range-order concatenation still reproduces every global partition
    and the row bases match the cut."""
    full = PartitionedStore(fig1_data, index_backend=backend)
    sharded = build_shards(fig1_data, 3, backend, "balanced")
    table = build_range_table(fig1_data.rows_by_signature(), 3, "balanced")
    for signature, partition in full.partitions.items():
        owners = [
            shard for shard in sharded
            if shard.partition(signature) is not None
        ]
        concatenated = ()
        for shard in sorted(owners, key=lambda s: s.row_base(signature)):
            assert shard.row_base(signature) == len(concatenated)
            concatenated += shard.partition(signature).edge_ids
        assert concatenated == partition.edge_ids
        assert table[signature] is not None
    for shard, ranges in zip(sharded, range_table_slices(table, 3)):
        assert shard.ranges() == ranges
        assert shard.sharding == "balanced"
        assert shard.describe().sharding == "balanced"


@pytest.mark.parametrize("backend", INDEX_BACKENDS)
def test_duplicated_keyed_streams_fold_exactly_once(backend):
    """The replication property: a reply stream that is shuffled AND
    duplicated (a replica's speculative twin answering the same level)
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
            # replicas' replies are byte-identical, never the same
            # object), then shuffle the whole stream.
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


class TestReplicaIdentity:
    def test_descriptor_replica_fields_round_trip(self, fig1_data):
        from repro.hypergraph.sharding import ShardDescriptor

        base = build_shards(fig1_data, 2)[0].describe()
        assert (base.replica_id, base.num_replicas) == (0, 1)
        stamped = base.with_replica(1, 3)
        assert (stamped.replica_id, stamped.num_replicas) == (1, 3)
        # Identity never changes what the shard owns.
        assert stamped.shard_id == base.shard_id
        assert stamped.num_rows == base.num_rows
        parsed = ShardDescriptor.from_dict(dataclasses.asdict(stamped))
        assert parsed == stamped
        # Pre-replication peers omit the fields: default to 0 of 1.
        legacy = dataclasses.asdict(base)
        legacy.pop("replica_id", None)
        legacy.pop("num_replicas", None)
        parsed = ShardDescriptor.from_dict(legacy)
        assert (parsed.replica_id, parsed.num_replicas) == (0, 1)

    def test_with_replica_validates_arithmetic(self, fig1_data):
        descriptor = build_shards(fig1_data, 2)[0].describe()
        with pytest.raises(ValueError, match="out of range"):
            descriptor.with_replica(2, 2)
        with pytest.raises(ValueError, match=">= 1"):
            descriptor.with_replica(0, 0)

    def test_replica_set_tracks_live_members(self):
        from repro.hypergraph import ReplicaSet

        replicas = ReplicaSet(3, 2)
        assert not replicas and len(replicas) == 0
        replicas.place(1, "b")
        replicas.place(0, "a")
        with pytest.raises(ValueError, match="already placed"):
            replicas.place(0, "usurper")
        with pytest.raises(ValueError, match="out of range"):
            replicas.place(2, "c")
        # Deterministic ascending order regardless of placement order.
        assert replicas.members() == [(0, "a"), (1, "b")]
        assert list(replicas) == ["a", "b"]
        replicas.remove(0)
        replicas.remove(0)  # idempotent
        assert replicas.get(0) is None and replicas.get(1) == "b"
        assert len(replicas) == 1 and bool(replicas)
        replicas.remove(1)
        assert not replicas  # zero live replicas: the fatal state
        with pytest.raises(ValueError):
            ReplicaSet(0, 0)
