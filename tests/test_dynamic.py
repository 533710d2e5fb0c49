"""Dynamic hypergraphs: mutation batches, row layout, incremental stores.

Pins the contracts the whole dynamic stack leans on:

* :class:`MutationBatch` normalisation, identity and JSON round-trip
  (the daemon's ``mutate`` op sends batches as line-JSON);
* :meth:`DynamicHypergraph.apply` up-front validation — a rejected
  batch leaves the graph byte-for-byte untouched;
* the ROW-LAYOUT INVARIANT: tombstones keep their slots, inserts
  append fresh max ids, so global rows never shift;
* incremental store maintenance being *structurally identical* to a
  from-scratch rebuild, on every index backend — not just equal query
  answers but equal postings/masks/containers.
"""

import io
import os
import pickle
import random

import pytest

from repro import HGMatch, Hypergraph
from repro.errors import HypergraphError
from repro.hypergraph import (
    INDEX_BACKENDS,
    DynamicHypergraph,
    MutationBatch,
    PartitionedStore,
    StoreShard,
    apply_batch,
)
from repro.hypergraph.journal import (
    dump_snapshot,
    encode_record,
    parse_snapshot,
    scan_journal,
)
from repro.hypergraph.persistence import dump_store, parse_store, stores_equal
from repro.testing import make_mutable_instance, random_mutation_schedule


def small_graph():
    return Hypergraph(
        labels=["A", "C", "A", "A", "B", "C", "A"],
        edges=[{2, 4}, {4, 6}, {0, 1, 2}, {3, 5, 6},
               {0, 1, 4, 6}, {2, 3, 4, 5}],
    )


def labelled_graph():
    return Hypergraph(
        labels=["A", "B", "A", "B"],
        edges=[{0, 1}, {1, 2}, {2, 3}],
        edge_labels=["x", "y", "x"],
    )


# ---------------------------------------------------------------------------
# MutationBatch
# ---------------------------------------------------------------------------

class TestMutationBatch:
    def test_vertices_normalised_sorted_deduped(self):
        batch = MutationBatch(inserts=[(3, 1, 3, 2)])
        assert batch.inserts == (((1, 2, 3), None),)

    def test_labelled_insert_pair_form(self):
        batch = MutationBatch(inserts=[((2, 0), "x")])
        assert batch.inserts == (((0, 2), "x"),)

    def test_bool(self):
        assert not MutationBatch()
        assert MutationBatch(deletes=[0])
        assert MutationBatch(add_vertices=["A"])

    def test_eq_hash_ignore_input_order_of_vertices(self):
        first = MutationBatch(inserts=[(1, 2)], deletes=[0])
        second = MutationBatch(inserts=[(2, 1)], deletes=[0])
        assert first == second
        assert hash(first) == hash(second)
        assert first != MutationBatch(inserts=[(1, 2)])

    def test_json_round_trip(self):
        batch = MutationBatch(
            inserts=[(0, 2), ((1, 3), "x")],
            deletes=[4, 1],
            add_vertices=["B", "A"],
        )
        assert MutationBatch.from_json(batch.to_json()) == batch

    def test_from_json_tolerates_missing_keys(self):
        assert MutationBatch.from_json({}) == MutationBatch()

    def test_from_json_rejects_non_dict(self):
        with pytest.raises(HypergraphError):
            MutationBatch.from_json([1, 2, 3])


# ---------------------------------------------------------------------------
# DynamicHypergraph.apply — validation and atomicity
# ---------------------------------------------------------------------------

class TestApplyValidation:
    def snapshot(self, graph):
        return (
            graph.version,
            graph.num_vertices,
            graph.num_edges,
            graph.num_slots,
            graph.rows_by_signature(),
        )

    def check_rejected(self, graph, batch):
        before = self.snapshot(graph)
        with pytest.raises(HypergraphError):
            graph.apply(batch)
        assert self.snapshot(graph) == before

    def test_delete_unknown_edge(self):
        graph = DynamicHypergraph.from_hypergraph(small_graph())
        self.check_rejected(graph, MutationBatch(deletes=[99]))

    def test_delete_dead_edge(self):
        graph = DynamicHypergraph.from_hypergraph(small_graph())
        graph.apply(MutationBatch(deletes=[1]))
        self.check_rejected(graph, MutationBatch(deletes=[1]))

    def test_double_delete_in_one_batch(self):
        graph = DynamicHypergraph.from_hypergraph(small_graph())
        self.check_rejected(graph, MutationBatch(deletes=[2, 2]))

    def test_insert_unknown_vertex(self):
        graph = DynamicHypergraph.from_hypergraph(small_graph())
        self.check_rejected(graph, MutationBatch(inserts=[(0, 99)]))

    def test_insert_empty_edge(self):
        graph = DynamicHypergraph.from_hypergraph(small_graph())
        self.check_rejected(graph, MutationBatch(inserts=[()]))

    def test_labelled_graph_requires_edge_label(self):
        graph = DynamicHypergraph.from_hypergraph(labelled_graph())
        self.check_rejected(graph, MutationBatch(inserts=[(0, 3)]))

    def test_unlabelled_graph_rejects_edge_label(self):
        graph = DynamicHypergraph.from_hypergraph(small_graph())
        self.check_rejected(graph, MutationBatch(inserts=[((0, 3), "x")]))

    def test_rejected_batch_is_atomic(self):
        # A batch with a valid delete AND an invalid insert must apply
        # neither half.
        graph = DynamicHypergraph.from_hypergraph(small_graph())
        self.check_rejected(
            graph, MutationBatch(deletes=[0], inserts=[(0, 99)])
        )
        assert graph.is_live(0)

    def test_insert_may_reference_fresh_vertices(self):
        graph = DynamicHypergraph.from_hypergraph(small_graph())
        result = graph.apply(
            MutationBatch(inserts=[(0, 7)], add_vertices=["B"])
        )
        assert len(result.inserted) == 1
        assert graph.num_vertices == 8
        assert graph.edge(result.inserted[0].edge_id) == frozenset({0, 7})


class TestApplySemantics:
    def test_version_bumps_on_every_apply(self):
        graph = DynamicHypergraph.from_hypergraph(small_graph())
        assert graph.version == 0
        graph.apply(MutationBatch())
        assert graph.version == 1
        graph.apply(MutationBatch(deletes=[0]))
        assert graph.version == 2

    def test_duplicate_insert_is_skipped_not_an_error(self):
        graph = DynamicHypergraph.from_hypergraph(small_graph())
        result = graph.apply(MutationBatch(inserts=[(2, 4)]))
        assert result.inserted == ()
        assert result.skipped == (((2, 4), None),)
        assert graph.num_edges == 6

    def test_delete_then_reinsert_gets_fresh_id(self):
        graph = DynamicHypergraph.from_hypergraph(small_graph())
        result = graph.apply(
            MutationBatch(deletes=[0], inserts=[(2, 4)])
        )
        (mutation,) = result.inserted
        assert mutation.edge_id == 6  # never reuses slot 0
        assert not graph.is_live(0)
        assert graph.num_slots == 7

    def test_tombstones_keep_row_coordinates(self):
        graph = DynamicHypergraph.from_hypergraph(small_graph())
        rows_before = graph.rows_by_signature()
        graph.apply(MutationBatch(deletes=[0]))
        # The tombstoned slot stays in the row layout...
        assert graph.rows_by_signature() == rows_before
        # ...but leaves the live read interface.
        assert graph.num_edges == 5
        assert frozenset({2, 4}) not in graph.edges
        with pytest.raises(HypergraphError):
            graph.edge(0)

    def test_deleted_mutations_carry_stable_rows(self):
        graph = DynamicHypergraph.from_hypergraph(small_graph())
        rows = graph.rows_by_signature()
        result = graph.apply(MutationBatch(deletes=[3]))
        (mutation,) = result.deleted
        assert rows[mutation.signature][mutation.row] == 3

    def test_to_hypergraph_is_dense_and_tombstone_free(self):
        graph = DynamicHypergraph.from_hypergraph(small_graph())
        graph.apply(MutationBatch(deletes=[1, 4], inserts=[(0, 3)]))
        snapshot = graph.to_hypergraph()
        assert isinstance(snapshot, Hypergraph)
        assert snapshot.num_edges == graph.num_edges == 5
        assert sorted(map(sorted, snapshot.edges)) == sorted(
            map(sorted, graph.edges)
        )

    def test_from_hypergraph_clone_preserves_tombstones_and_version(self):
        graph = DynamicHypergraph.from_hypergraph(small_graph())
        graph.apply(MutationBatch(deletes=[2], inserts=[(1, 5)]))
        clone = DynamicHypergraph.from_hypergraph(graph)
        assert clone.version == graph.version
        assert clone.num_slots == graph.num_slots
        assert clone.rows_by_signature() == graph.rows_by_signature()
        assert not clone.is_live(2)
        # The clone is independent: mutating it leaves the original alone.
        clone.apply(MutationBatch(deletes=[0]))
        assert graph.is_live(0)

    def test_labelled_inserts_and_deletes(self):
        graph = DynamicHypergraph.from_hypergraph(labelled_graph())
        result = graph.apply(
            MutationBatch(deletes=[0], inserts=[((0, 3), "y")])
        )
        (mutation,) = result.inserted
        assert graph.edge_label(mutation.edge_id) == "y"
        # Same vertices, different edge label: a distinct edge, not a dup.
        result = graph.apply(MutationBatch(inserts=[((0, 3), "x")]))
        assert len(result.inserted) == 1


# ---------------------------------------------------------------------------
# One graph hierarchy: the inherited read interface and the row layout
# ---------------------------------------------------------------------------

def live_view(graph):
    """Every public read accessor of :class:`Hypergraph`, with edge ids
    renumbered dense in ascending order — the view under which a
    mutated graph and its ``to_hypergraph()`` rebuild are one graph."""
    ids = list(graph.live_edge_ids())
    dense = {edge_id: position for position, edge_id in enumerate(ids)}
    vertices = range(graph.num_vertices)

    def renumbered(edge_ids):
        return sorted(dense[edge_id] for edge_id in edge_ids)

    return {
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "labels": graph.labels,
        "edges": graph.edges,
        "is_edge_labelled": graph.is_edge_labelled,
        "edge_signatures": graph.edge_signatures(),
        "average_arity": graph.average_arity(),
        "max_arity": graph.max_arity(),
        "label_alphabet": graph.label_alphabet(),
        "is_connected": graph.is_connected(),
        "iter": tuple(graph),
        "len": len(graph),
        "hash": hash(graph),
        "label": [graph.label(v) for v in vertices],
        "degree": [graph.degree(v) for v in vertices],
        "incident_edges": [
            renumbered(graph.incident_edges(v)) for v in vertices
        ],
        "incident_edges_with_arity": [
            [renumbered(graph.incident_edges_with_arity(v, arity))
             for arity in range(1, graph.max_arity() + 1)]
            for v in vertices
        ],
        "adjacent_vertices": [graph.adjacent_vertices(v) for v in vertices],
        "is_live": [graph.is_live(e) for e in ids],
        "slot_vertices": [graph.slot_vertices(e) for e in ids],
        "edge": [graph.edge(e) for e in ids],
        "edge_signature": [graph.edge_signature(e) for e in ids],
        "edge_label": [graph.edge_label(e) for e in ids],
        "arity": [graph.arity(e) for e in ids],
        "adjacent_edges": [renumbered(graph.adjacent_edges(e)) for e in ids],
        "edge_id": renumbered(
            graph.edge_id(graph.edge(e), graph.edge_label(e)) for e in ids
        ),
        "has_edge": [
            graph.has_edge(graph.edge(e), graph.edge_label(e)) for e in ids
        ],
        "induced_by_edges": graph.induced_by_edges(ids[1:3]),
    }


def layout(graph):
    """The coordinates indexes, shard ranges and wire masks speak."""
    return (
        graph.version,
        graph.num_slots,
        graph.rows_by_signature(),
        [graph.slot_vertices(slot) for slot in range(graph.num_slots)],
    )


#: One fixed batch per base graph: a delete, a fresh vertex, a duplicate
#: insert (skipped), an insert into an old signature and one into a new.
GRAPHS_AND_BATCHES = {
    "fig1": (
        small_graph,
        MutationBatch(
            inserts=[(0, 4), (2, 4), (2, 7)], deletes=[1],
            add_vertices=["C"],
        ),
    ),
    "edge-labelled": (
        labelled_graph,
        MutationBatch(
            inserts=[((0, 3), "y"), ((0, 1), "x"), ((3, 4), "z")],
            deletes=[1], add_vertices=["A"],
        ),
    ),
}


@pytest.mark.parametrize("name", GRAPHS_AND_BATCHES)
class TestOneGraphHierarchy:
    def test_a_promoted_graph_reads_as_the_graph_it_extends(self, name):
        make, _ = GRAPHS_AND_BATCHES[name]
        base = make()
        promoted = DynamicHypergraph.from_hypergraph(base)
        assert isinstance(promoted, Hypergraph)
        assert live_view(promoted) == live_view(base)
        assert layout(promoted) == layout(base)
        assert promoted == base and base == promoted

    def test_a_mutated_graph_reads_as_its_rebuild(self, name):
        make, batch = GRAPHS_AND_BATCHES[name]
        graph = DynamicHypergraph.from_hypergraph(make())
        result = graph.apply(batch)
        assert result.inserted and result.deleted and result.skipped
        rebuilt = graph.to_hypergraph()
        assert type(rebuilt) is Hypergraph
        assert live_view(graph) == live_view(rebuilt)
        assert graph == rebuilt and rebuilt == graph
        # The layout keeps what the live view hides: the dead slot.
        assert graph.num_slots == rebuilt.num_slots + 1
        (dead,) = batch.deletes
        assert not graph.is_live(dead)
        assert graph.slot_vertices(dead) is None
        assert dead in graph.rows_by_signature()[result.deleted[0].signature]
        for accessor in (
            graph.edge, graph.edge_signature, graph.edge_label,
            graph.arity, graph.adjacent_edges,
        ):
            with pytest.raises(HypergraphError):
                accessor(dead)
        with pytest.raises(HypergraphError):
            graph.induced_by_edges([dead])

    def test_pickle_keeps_the_coordinates_and_drops_the_history(self, name):
        """What crosses a process boundary: spawn arguments and the
        CATCHUP snapshot ship the graph, never its catch-up history."""
        make, batch = GRAPHS_AND_BATCHES[name]
        base = make()
        graph = DynamicHypergraph.from_hypergraph(base)
        graph.apply(batch)
        for original in (base, graph):
            shipped = pickle.loads(pickle.dumps(original))
            assert type(shipped) is type(original)
            assert live_view(shipped) == live_view(original)
            assert layout(shipped) == layout(original)
        assert graph.batches_since(0) == [(1, batch)]
        assert shipped.batches_since(0) is None
        assert shipped.batches_since(1) == []
        # The copy is independent and lands inserts on the same ids.
        again = MutationBatch(deletes=[0])
        assert shipped.apply(again).version == graph.apply(again).version
        assert layout(shipped) == layout(graph)

    def test_snapshot_round_trip_is_coordinate_identical(self, name):
        make, batch = GRAPHS_AND_BATCHES[name]
        base = make()
        graph = DynamicHypergraph.from_hypergraph(base)
        graph.apply(batch)
        for original in (base, graph):
            stream = io.StringIO()
            dump_snapshot(original, stream)
            recovered = parse_snapshot(io.StringIO(stream.getvalue()))
            assert type(recovered) is DynamicHypergraph
            assert layout(recovered) == layout(original)
            assert live_view(recovered) == live_view(original)


class TestGoldenBytes:
    """``tests/data/fig1_batch.*`` were written by the commit *before*
    the graph classes became one hierarchy: what is on disk must not
    move, in either direction."""

    DATA = os.path.join(os.path.dirname(__file__), "data")

    def golden(self, name, mode="r"):
        with open(os.path.join(self.DATA, name), mode) as stream:
            return stream.read()

    def mutated(self):
        batch = MutationBatch(
            inserts=[(0, 4), (2, 7)], deletes=[1], add_vertices=["C"]
        )
        graph = DynamicHypergraph.from_hypergraph(small_graph())
        graph.apply(batch)
        return graph, batch

    def test_journal_record(self):
        graph, batch = self.mutated()
        golden = self.golden("fig1_batch.journal", "rb")
        assert golden == b"HGJRNL 1\n" + encode_record(graph.version, batch)
        records, valid = scan_journal(golden)
        assert valid == len(golden)
        assert [(v, b) for _, v, b in records] == [(1, batch)]

    def test_snapshot(self):
        graph, _ = self.mutated()
        golden = self.golden("fig1_batch.snap")
        stream = io.StringIO()
        dump_snapshot(graph, stream)
        assert stream.getvalue() == golden
        recovered = parse_snapshot(io.StringIO(golden))
        assert layout(recovered) == layout(graph)
        assert live_view(recovered) == live_view(graph)

    @pytest.mark.parametrize("backend", INDEX_BACKENDS)
    def test_store(self, backend):
        graph, _ = self.mutated()
        golden = self.golden("fig1_batch.hgstore")
        rebuilt = PartitionedStore(graph.to_hypergraph(), backend)
        stream = io.StringIO()
        dump_store(rebuilt, stream)
        assert stream.getvalue() == golden
        assert stores_equal(parse_store(io.StringIO(golden), backend), rebuilt)


# ---------------------------------------------------------------------------
# Engines on one store
# ---------------------------------------------------------------------------

def test_an_engine_never_mutates_a_store_it_was_handed():
    """Two engines on one store (``HGMatch(store=...)``; what
    ``datasets.load_store`` hands out from its process-wide cache): the
    first mutation moves the mutating engine onto a private store, so
    the other engine — and the cache — keep the graph they were built
    for."""
    data = small_graph()
    store = PartitionedStore(data)
    rows_before = {
        signature: partition.row_ids
        for signature, partition in store.partitions.items()
    }
    a = HGMatch(data, store=store)
    b = HGMatch(data, store=store)
    q = Hypergraph(["A", "B"], [{0, 1}])
    q2 = Hypergraph(["A", "B", "A"], [{0, 1}, {1, 2}])
    assert (a.count(q), a.count(q2)) == (b.count(q), b.count(q2)) == (2, 2)
    a.apply_mutations(MutationBatch(inserts=[{0, 4}]))
    assert (a.count(q), a.count(q2)) == (3, 6)
    assert (b.count(q), b.count(q2)) == (2, 2)
    assert b.store is store and a.store is not store
    assert a.store.index_backend == store.index_backend
    assert store.graph is data
    assert {
        signature: partition.row_ids
        for signature, partition in store.partitions.items()
    } == rows_before
    # The private store is maintained in place from then on.
    private = a.store
    a.apply_mutations(MutationBatch(deletes=[0]))
    assert a.store is private and (a.count(q), a.count(q2)) == (2, 2)


# ---------------------------------------------------------------------------
# Incremental store maintenance ≡ from-scratch rebuild (structurally)
# ---------------------------------------------------------------------------

def index_state(index):
    """The backend's complete internal posting state, comparable."""
    if index.backend == "merge":
        return dict(index._postings)
    if index.backend == "bitset":
        return (tuple(index._row_to_edge), dict(index._masks))
    assert index.backend == "adaptive"
    return (
        tuple(index._row_to_edge),
        {v: dict(chunks) for v, chunks in index._chunk_maps.items()},
        None if index._flat is None else dict(index._flat),
    )


def store_state(store):
    return {
        signature: (
            partition.edge_ids,
            partition.row_ids,
            index_state(partition.index),
        )
        for signature, partition in store._partitions.items()
        if partition.row_ids  # rebuilds never materialise empty layouts
    }


@pytest.mark.parametrize("backend", INDEX_BACKENDS)
def test_partitioned_store_incremental_equals_rebuild(backend):
    rng = random.Random(0xD15C0)
    checked = 0
    for attempt in range(30):
        instance = make_mutable_instance(rng)
        if instance is None:
            continue
        data, _, _ = instance
        graph = DynamicHypergraph.from_hypergraph(data)
        store = PartitionedStore(graph, index_backend=backend)
        # A store is the 1-of-1 shard: same build, same maintenance.
        whole = StoreShard.build(graph, 0, 1, backend)
        assert store_state(whole) == store_state(store)
        for batch in random_mutation_schedule(rng, data, steps=6):
            result = graph.apply(batch)
            store.apply_mutation_result(result)
            whole.apply_mutation_result(result)
            rebuilt = PartitionedStore(graph, index_backend=backend)
            assert store_state(store) == store_state(rebuilt), (
                f"incremental {backend} store diverged from rebuild at "
                f"version {graph.version} (attempt {attempt})"
            )
            assert store_state(whole) == store_state(store)
            assert {
                signature: (
                    whole.row_base(signature),
                    whole.partition(signature).num_rows,
                )
                for signature in whole.partitions
            } == {
                signature: (0, len(rows))
                for signature, rows in graph.rows_by_signature().items()
            }
        checked += 1
        if checked >= 8:
            break
    assert checked >= 8


@pytest.mark.parametrize("backend", INDEX_BACKENDS)
def test_apply_batch_commits_to_the_graph_of_the_store_it_is_given(backend):
    """``apply_batch(store, batch)`` — the one write path takes no graph:
    the store's own is promoted on the first batch (the store adopts it
    without a rebuild, the immutable original is left alone) and every
    batch leaves the store equal to a rebuild of the graph returned."""
    rng = random.Random(0xBA7C)
    checked = 0
    for _ in range(30):
        instance = make_mutable_instance(rng)
        if instance is None:
            continue
        data, _, _ = instance
        edges_before = [set(data.edge(e)) for e in range(data.num_edges)]
        store = PartitionedStore(data, index_backend=backend)
        versions = []
        for batch in random_mutation_schedule(rng, data, steps=4):
            graph, result = apply_batch(store, batch)
            assert store.graph is graph
            assert isinstance(graph, DynamicHypergraph)
            assert result.version == graph.version
            versions.append(graph.version)
            rebuilt = PartitionedStore(graph, index_backend=backend)
            assert store_state(store) == store_state(rebuilt)
        assert versions == sorted(set(versions)) and versions
        assert graph is not data
        assert [set(data.edge(e)) for e in range(data.num_edges)] == edges_before
        checked += 1
        if checked >= 5:
            break
    assert checked >= 5


@pytest.mark.parametrize("backend", INDEX_BACKENDS)
def test_sharded_store_incremental_covers_mutated_graph(backend):
    """Every shard maintains its slice; concatenated in range order the
    shards reproduce the mutated graph's global row layout exactly."""
    rng = random.Random(0x5A4D)
    checked = 0
    for _ in range(30):
        instance = make_mutable_instance(rng)
        if instance is None:
            continue
        data, _, _ = instance
        graph = DynamicHypergraph.from_hypergraph(data)
        # Each shard takes the same results, independently.
        shards = [StoreShard.build(graph, i, 3, backend) for i in range(3)]
        for batch in random_mutation_schedule(rng, data, steps=6):
            result = graph.apply(batch)
            for shard in shards:
                shard.apply_mutation_result(result)
            live = {
                signature: [e for e in rows if graph.is_live(e)]
                for signature, rows in graph.rows_by_signature().items()
            }
            for signature, rows in graph.rows_by_signature().items():
                ordered = sorted(
                    (
                        (shard.row_base(signature), shard)
                        for shard in shards
                        if shard.partition(signature) is not None
                    ),
                    key=lambda pair: pair[0],
                )
                concat_rows = []
                concat_edges = []
                for _, shard in ordered:
                    partition = shard.partition(signature)
                    concat_rows.extend(partition.row_ids)
                    concat_edges.extend(partition.edge_ids)
                assert concat_rows == rows
                assert concat_edges == live[signature]
            for shard in shards:
                assert shard.graph is graph
        checked += 1
        if checked >= 5:
            break
    assert checked >= 5
