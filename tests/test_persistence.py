"""Persistence of a graph: the graph records of a journal snapshot.

A snapshot stores the graph, never its index: whoever recovers it
builds the store it wants, which must be the store the original graph
had.  What the records must carry exactly — int and str labels as
typed tokens, edge labels — and what the reader refuses — a foreign
header, an unknown or malformed record, a vertex with no label or two
— is pinned here; crc damage and recovery are ``tests/test_journal.py``'s.
"""

from __future__ import annotations

import io
import os
import zlib

import pytest

from repro import HGMatch, Hypergraph, PartitionedStore
from repro.errors import JournalCorruption, ParseError
from repro.hypergraph import MutationBatch
from repro.hypergraph.journal import (
    MutationJournal,
    dump_snapshot,
    parse_snapshot,
)

DATA = os.path.join(os.path.dirname(__file__), "data")


def roundtrip(graph):
    stream = io.StringIO()
    dump_snapshot(graph, stream)
    return parse_snapshot(io.StringIO(stream.getvalue()))


def store_view(store):
    """Partitions and posting lists of ``store``, backend-neutral."""
    return {
        signature: (
            partition.edge_ids,
            {
                vertex: partition.index.postings(vertex)
                for vertex in partition.index.vertices()
            },
        )
        for signature, partition in store.partitions.items()
    }


def signed(body):
    """A v2 snapshot of the records in ``body``, with a correct crc: so
    what refuses it is the record check, not the crc."""
    return body + f"crc {zlib.crc32(body.encode('utf-8')):08x}\n"


HEADER = "HGDSNAP 2\nversion 0\nslots 1\n"


class TestRoundTrip:
    def test_fig1_store(self, fig1_data):
        """The store over the recovered graph is the store over the
        original: same partitions, same posting lists."""
        restored = roundtrip(fig1_data)
        assert restored == fig1_data
        assert store_view(PartitionedStore(restored)) == store_view(
            PartitionedStore(fig1_data)
        )

    def test_file_roundtrip(self, tmp_path, fig1_data):
        MutationJournal(tmp_path).write_snapshot(fig1_data)
        state = MutationJournal(tmp_path).recover()
        assert state.graph == fig1_data
        assert (state.version, state.replayed) == (0, 0)

    def test_int_labels(self):
        for labels in ([0, 1, 0, 1], ["0", "1", "0", "1"]):
            graph = Hypergraph(labels, [{0, 1}, {1, 2, 3}])
            restored = roundtrip(graph)
            assert list(restored.labels) == labels
            assert type(restored.label(0)) is type(labels[0])
            assert restored == graph

    def test_edge_labelled_graph(self):
        graph = Hypergraph(
            ["A", "A", "B"],
            [{0, 1}, {0, 1}, {1, 2}],
            edge_labels=["r", "s", "r"],
        )
        restored = roundtrip(graph)
        assert restored.is_edge_labelled
        assert restored.edge_label(1) == "s"
        assert restored == graph
        # A tombstone keeps its edge label: the signature's first part.
        mutated = roundtrip(graph)
        mutated.apply(MutationBatch(deletes=[1]))
        again = roundtrip(mutated)
        assert again.rows_by_signature() == mutated.rows_by_signature()
        assert again.apply(
            MutationBatch(inserts=[((0, 1), "s")])
        ).inserted[0].edge_id == 3

    def test_restored_store_answers_queries(self, fig1_data, fig1_query):
        assert HGMatch(roundtrip(fig1_data)).count(fig1_query) == 2

    def test_dataset_roundtrip(self):
        from repro.datasets import load_dataset

        graph = load_dataset("CH")
        restored = roundtrip(graph)
        assert restored == graph
        assert restored.rows_by_signature() == graph.rows_by_signature()


class TestValidation:
    def test_bad_header_rejected(self):
        for text in ("NOT A SNAPSHOT\n", "HGSTORE 1\nv 0\n", ""):
            with pytest.raises(JournalCorruption, match="not a graph"):
                parse_snapshot(io.StringIO(text))

    def test_malformed_record_rejected(self):
        text = signed(HEADER + "v 1\nl zero s:A\ne 0\n")
        with pytest.raises(JournalCorruption, match="integrity"):
            parse_snapshot(io.StringIO(text))

    def test_unknown_record_rejected(self):
        text = signed(HEADER + "v 1\nl 0 s:A\nz 1\ne 0\n")
        with pytest.raises(JournalCorruption, match="unknown record"):
            parse_snapshot(io.StringIO(text))

    @pytest.mark.parametrize(
        "labels, why",
        [
            ("l 0 s:A\n", "has no label"),
            ("l 0 s:A\nl 1 s:B\nl 1 s:C\n", "labelled twice"),
            ("l 0 s:A\nl 1 s:B\nl -1 s:C\n", "out of range"),
            ("l 0 s:A\nl 1 s:B\nl 2 s:C\n", "out of range"),
        ],
        ids=["missing", "twice", "negative", "past-the-end"],
    )
    def test_vertex_label_records_rejected(self, labels, why):
        text = signed(HEADER + "v 2\n" + labels + "e 0 1\n")
        with pytest.raises(JournalCorruption, match=why):
            parse_snapshot(io.StringIO(text))

    def test_wrong_partition_contents_rejected(self):
        """A v1 snapshot's index records are skipped, not trusted, but
        still counted: partitions that no longer cover the edges mean
        the file is damaged, so it is refused."""
        with open(os.path.join(DATA, "fig1_batch_v1.snap")) as stream:
            golden = stream.read()
        assert "p 3 4\n" in golden
        with pytest.raises(JournalCorruption, match="do not cover"):
            parse_snapshot(io.StringIO(golden.replace("p 3 4\n", "p 3\n")))

    def test_whitespace_label_rejected(self):
        for graph in (
            Hypergraph(["A label"], [{0}]),
            Hypergraph(["A"], [{0}], edge_labels=["an edge"]),
        ):
            with pytest.raises(ParseError, match="whitespace"):
                dump_snapshot(graph, io.StringIO())
