"""Text serialisation of labelled hypergraphs.

Two formats are supported:

**Native format** (``.hg``) — self-contained, one file::

    # comment lines start with '#'
    v <num_vertices>
    l <vertex_id> <label>          # one per vertex
    e <vertex_id> <vertex_id> ...  # one per hyperedge

**Simplex format** — the layout used by the Benson hypergraph corpus the
paper downloads its datasets from: three parallel files,
``<name>-nverts.txt`` (arity of each simplex), ``<name>-simplices.txt``
(concatenated 1-based vertex ids) and ``<name>-labels.txt`` (one label per
vertex).  :func:`load_simplex_dir` reads a directory in that layout;
:func:`save_simplex_dir` writes one.

Both loaders apply the paper's preprocessing (duplicate hyperedges and
duplicate vertices inside a hyperedge are removed) because that happens in
the :class:`Hypergraph` constructor.
"""

from __future__ import annotations

import os
from typing import Dict, FrozenSet, List, TextIO

from ..errors import HypergraphError, ParseError, QueryError
from .hypergraph import Hypergraph


def dump_native(graph: Hypergraph, stream: TextIO) -> None:
    """Write ``graph`` to ``stream`` in the native ``.hg`` format."""
    stream.write(f"v {graph.num_vertices}\n")
    for vertex in range(graph.num_vertices):
        stream.write(f"l {vertex} {graph.label(vertex)}\n")
    for edge in graph.edges:
        stream.write("e " + " ".join(str(v) for v in sorted(edge)) + "\n")


def save_native(graph: Hypergraph, path: str) -> None:
    """Write ``graph`` to the file at ``path`` in native format."""
    with open(path, "w", encoding="utf-8") as stream:
        dump_native(graph, stream)


def parse_native(stream: TextIO) -> Hypergraph:
    """Parse a native-format hypergraph from ``stream``.

    Labels are read back as strings; callers needing integer labels can
    re-map them.  Reads the stream line by line, and holds labels only
    for the ``l`` records it has read, so a header's vertex count costs
    nothing until records back it.  Raises :class:`ParseError` on
    malformed input (a ``v`` or ``l`` record with a token too many or
    too few, a negative header), on a second ``v`` header or a second
    ``l`` record for one vertex, on an ``l`` record naming no vertex of
    the header, on a vertex left without an ``l`` record and on a
    hyperedge the :class:`Hypergraph` refuses (empty, or naming no
    vertex of the header).
    """
    num_vertices = -1
    labels: Dict[int, str] = {}
    edges: List[List[int]] = []
    for line_no, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "v":
                if num_vertices >= 0:
                    raise ParseError(f"line {line_no}: a second 'v' header")
                _, count = parts
                num_vertices = int(count)
                if num_vertices < 0:
                    raise ValueError("negative vertex count")
            elif kind == "l":
                _, vertex, label = parts
                vertex = int(vertex)
                if not 0 <= vertex < num_vertices:
                    raise ParseError(
                        f"line {line_no}: 'l' record for vertex {vertex} "
                        f"outside the header's {max(num_vertices, 0)} vertices"
                    )
                if vertex in labels:
                    raise ParseError(
                        f"line {line_no}: a second 'l' record for vertex "
                        f"{vertex}"
                    )
                labels[vertex] = label
            elif kind == "e":
                edges.append([int(token) for token in parts[1:]])
            else:
                raise ParseError(f"line {line_no}: unknown record type {kind!r}")
        except ValueError as exc:
            raise ParseError(f"line {line_no}: malformed record {line!r}") from exc
    if num_vertices < 0:
        raise ParseError("missing 'v' header record")
    if len(labels) < num_vertices:
        missing = next(v for v in range(num_vertices) if v not in labels)
        raise ParseError(f"vertex {missing} has no 'l' record")
    try:
        return Hypergraph([labels[v] for v in range(num_vertices)], edges)
    except HypergraphError as exc:
        raise ParseError(str(exc)) from exc


def label_types(graph: Hypergraph) -> FrozenSet[str]:
    """The names of the types of ``graph``'s vertex labels."""
    return frozenset(kind.__name__ for kind in set(map(type, graph.labels)))


def check_label_types(query: Hypergraph, data_types: FrozenSet[str]) -> None:
    """Refuse ``query`` when it has vertex labels of a type the data
    graph (whose :func:`label_types` are ``data_types``) has none of.

    Such a label equals no data label, so the query would match nothing
    and say nothing — what happens when a query file (the native format
    reads every label back as a string) meets a built-in dataset (int
    labels).  Raises :class:`~repro.errors.QueryError` naming both
    types.
    """
    foreign = label_types(query) - data_types
    if foreign and data_types:
        raise QueryError(
            f"query vertex labels are {', '.join(sorted(foreign))} but the "
            f"data graph's are {', '.join(sorted(data_types))}, so no label "
            f"can match (the native format reads labels back as strings: "
            f"give the data graph as a native file too)"
        )


def load_native(path: str) -> Hypergraph:
    """Read a native-format hypergraph from the file at ``path``."""
    with open(path, "r", encoding="utf-8") as stream:
        return parse_native(stream)


def load_simplex_dir(directory: str, name: str) -> Hypergraph:
    """Load a Benson-style simplex dataset from ``directory``.

    Expects ``<name>-nverts.txt``, ``<name>-simplices.txt`` and
    ``<name>-labels.txt``.  Vertex ids in the simplices file are 1-based,
    as in the published corpus.
    """
    nverts_path = os.path.join(directory, f"{name}-nverts.txt")
    simplices_path = os.path.join(directory, f"{name}-simplices.txt")
    labels_path = os.path.join(directory, f"{name}-labels.txt")

    with open(labels_path, "r", encoding="utf-8") as stream:
        labels = [line.strip() for line in stream if line.strip()]
    with open(nverts_path, "r", encoding="utf-8") as stream:
        arities = [int(line) for line in stream if line.strip()]
    with open(simplices_path, "r", encoding="utf-8") as stream:
        flat = [int(line) for line in stream if line.strip()]

    if sum(arities) != len(flat):
        raise ParseError(
            f"simplices file length {len(flat)} does not match "
            f"sum of arities {sum(arities)}"
        )

    edges: List[List[int]] = []
    cursor = 0
    for arity in arities:
        chunk = flat[cursor : cursor + arity]
        cursor += arity
        edges.append([vertex - 1 for vertex in chunk])

    max_vertex = max(flat, default=0)
    if max_vertex > len(labels):
        raise ParseError(
            f"simplices reference vertex {max_vertex} but only "
            f"{len(labels)} labels were provided"
        )
    return Hypergraph(labels, edges)


def save_simplex_dir(graph: Hypergraph, directory: str, name: str) -> None:
    """Write ``graph`` to ``directory`` in the Benson simplex layout."""
    os.makedirs(directory, exist_ok=True)
    with open(
        os.path.join(directory, f"{name}-labels.txt"), "w", encoding="utf-8"
    ) as stream:
        for vertex in range(graph.num_vertices):
            stream.write(f"{graph.label(vertex)}\n")
    with open(
        os.path.join(directory, f"{name}-nverts.txt"), "w", encoding="utf-8"
    ) as nverts, open(
        os.path.join(directory, f"{name}-simplices.txt"), "w", encoding="utf-8"
    ) as simplices:
        for edge in graph.edges:
            ordered = sorted(edge)
            nverts.write(f"{len(ordered)}\n")
            for vertex in ordered:
                simplices.write(f"{vertex + 1}\n")
