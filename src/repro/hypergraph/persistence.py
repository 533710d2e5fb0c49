"""Persistence of the indexed data hypergraph.

The paper's offline stage (Fig. 3) produces an *indexed data
hypergraph* exactly once; online queries then only read it.  This
module makes that artefact durable: :func:`save_store` writes a
partitioned store (graph + signature partitions + inverted indexes) to
a single portable text file, and :func:`load_store` reads it back
without re-deriving anything — the posting lists come straight off
disk.

Format (line-oriented, ``#``-prefixed comments allowed)::

    HGSTORE 1
    v <num_vertices>
    l <vertex> <label>
    el <edge_id> <edge_label>           # only for edge-labelled graphs
    e <vertex> <vertex> ...             # edge ids are line order
    p <edge_id> <edge_id> ...           # one partition (ascending ids)
    i <vertex> <edge_id> <edge_id> ...  # posting list of the partition

Labels are written with :func:`repr` restricted to str/int so that both
label types round-trip exactly.
"""

from __future__ import annotations

from typing import Dict, List, TextIO, Tuple

from ..errors import ParseError
from .hypergraph import Hypergraph
from .index import index_from_postings
from .storage import (
    HyperedgePartition,
    PartitionedStore,
    resolve_index_backend,
)

_MAGIC = "HGSTORE 1"


def _encode_label(label: object) -> str:
    if isinstance(label, int):
        return f"i:{label}"
    if isinstance(label, str):
        if any(ch.isspace() for ch in label):
            raise ParseError(f"labels may not contain whitespace: {label!r}")
        return f"s:{label}"
    raise ParseError(f"only int/str labels can be persisted, got {type(label)}")


def _decode_label(token: str) -> object:
    kind, _, value = token.partition(":")
    if kind == "i":
        return int(value)
    if kind == "s":
        return value
    raise ParseError(f"malformed label token {token!r}")


def dump_store(store: PartitionedStore, stream: TextIO) -> None:
    """Serialise ``store`` (graph + partitions + indexes) to ``stream``."""
    graph = store.graph
    stream.write(_MAGIC + "\n")
    stream.write(f"v {graph.num_vertices}\n")
    for vertex in range(graph.num_vertices):
        stream.write(f"l {vertex} {_encode_label(graph.label(vertex))}\n")
    if graph.is_edge_labelled:
        for edge_id in range(graph.num_edges):
            stream.write(
                f"el {edge_id} {_encode_label(graph.edge_label(edge_id))}\n"
            )
    for edge in graph.edges:
        stream.write("e " + " ".join(str(v) for v in sorted(edge)) + "\n")
    for partition in store.partitions.values():
        stream.write(
            "p " + " ".join(str(e) for e in partition.edge_ids) + "\n"
        )
        for vertex in sorted(partition.index.vertices()):
            postings = partition.index.postings(vertex)
            stream.write(
                f"i {vertex} " + " ".join(str(e) for e in postings) + "\n"
            )


def save_store(store: PartitionedStore, path: str) -> None:
    """Write the indexed data hypergraph to ``path``."""
    with open(path, "w", encoding="utf-8") as stream:
        dump_store(store, stream)


def parse_store(
    stream: TextIO, index_backend: "str | None" = None
) -> PartitionedStore:
    """Read an indexed data hypergraph back (no recomputation).

    The on-disk format stores backend-neutral posting lists; the
    requested ``index_backend`` — any of ``merge``/``bitset``/
    ``adaptive``, default per :func:`repro.hypergraph.storage.
    default_index_backend` — is materialised while reading.  For the
    adaptive backend that includes re-deriving each chunk's
    array-versus-bitmask container choice, which is a pure function of
    the posting lists and therefore survives the round trip.
    """
    try:
        index_backend = resolve_index_backend(index_backend)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    header = stream.readline().strip()
    if header != _MAGIC:
        raise ParseError(f"not an HGSTORE file (header {header!r})")

    num_vertices = -1
    labels: List[object] = []
    edge_labels: Dict[int, object] = {}
    edges: List[List[int]] = []
    partitions: List[Tuple[List[int], Dict[int, Tuple[int, ...]]]] = []

    for line_no, raw in enumerate(stream, start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "v":
                num_vertices = int(parts[1])
                labels = [None] * num_vertices
            elif kind == "l":
                labels[int(parts[1])] = _decode_label(parts[2])
            elif kind == "el":
                edge_labels[int(parts[1])] = _decode_label(parts[2])
            elif kind == "e":
                edges.append([int(token) for token in parts[1:]])
            elif kind == "p":
                partitions.append(([int(t) for t in parts[1:]], {}))
            elif kind == "i":
                if not partitions:
                    raise ParseError(f"line {line_no}: posting before partition")
                vertex = int(parts[1])
                partitions[-1][1][vertex] = tuple(int(t) for t in parts[2:])
            else:
                raise ParseError(f"line {line_no}: unknown record {kind!r}")
        except (IndexError, ValueError) as exc:
            raise ParseError(f"line {line_no}: malformed record {line!r}") from exc

    if num_vertices < 0:
        raise ParseError("missing 'v' header record")
    ordered_edge_labels = (
        [edge_labels[i] for i in range(len(edges))] if edge_labels else None
    )
    graph = Hypergraph(labels, edges, edge_labels=ordered_edge_labels)
    if graph.num_edges != len(edges):
        raise ParseError("store file contains duplicate hyperedges")

    # An empty grouping: no partition is built, each one is read below.
    store = PartitionedStore(graph, index_backend, grouped={})
    for edge_ids, postings in partitions:
        if not edge_ids:
            raise ParseError("empty partition record")
        signature = graph.edge_signature(edge_ids[0])
        try:
            index = index_from_postings(index_backend, edge_ids, postings)
        except KeyError as exc:
            raise ParseError(
                f"posting references edge {exc.args[0]} outside its partition"
            ) from exc
        store._partitions[signature] = HyperedgePartition(
            signature, tuple(edge_ids), index
        )
        store._row_bases[signature] = 0
    _verify_store(store)
    return store


def load_store(
    path: str, index_backend: "str | None" = None
) -> PartitionedStore:
    """Read an indexed data hypergraph from ``path``."""
    with open(path, "r", encoding="utf-8") as stream:
        return parse_store(stream, index_backend=index_backend)


def _verify_store(store: PartitionedStore) -> None:
    """Cheap structural invariants of a deserialised store."""
    graph = store.graph
    covered = 0
    for signature, partition in store.partitions.items():
        covered += len(partition.edge_ids)
        for edge_id in partition.edge_ids:
            if graph.edge_signature(edge_id) != signature:
                raise ParseError(
                    f"edge {edge_id} filed under wrong signature {signature!r}"
                )
        if partition.index.num_entries != sum(
            graph.arity(edge_id) for edge_id in partition.edge_ids
        ):
            raise ParseError(
                f"posting entries do not cover partition {signature!r}"
            )
    if covered != graph.num_edges:
        raise ParseError(
            f"partitions cover {covered} edges, graph has {graph.num_edges}"
        )


def stores_equal(first: PartitionedStore, second: PartitionedStore) -> bool:
    """Deep equality of two stores (graph, partitions and postings)."""
    if first.graph != second.graph:
        return False
    if set(first.partitions) != set(second.partitions):
        return False
    for signature, partition in first.partitions.items():
        other = second.partitions[signature]
        if partition.edge_ids != other.edge_ids:
            return False
        vertices = set(partition.index.vertices())
        if vertices != set(other.index.vertices()):
            return False
        for vertex in vertices:
            if partition.index.postings(vertex) != other.index.postings(vertex):
                return False
    return True
