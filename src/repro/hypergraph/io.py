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
from typing import FrozenSet, Iterable, List, TextIO

from ..errors import ParseError, QueryError
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
    re-map them.  Raises :class:`ParseError` on malformed input.
    """
    num_vertices = -1
    labels: List[str] = []
    edges: List[List[int]] = []
    for line_no, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "v":
                num_vertices = int(parts[1])
                labels = [""] * num_vertices
            elif kind == "l":
                labels[int(parts[1])] = parts[2]
            elif kind == "e":
                edges.append([int(token) for token in parts[1:]])
            else:
                raise ParseError(f"line {line_no}: unknown record type {kind!r}")
        except (IndexError, ValueError) as exc:
            raise ParseError(f"line {line_no}: malformed record {line!r}") from exc
    if num_vertices < 0:
        raise ParseError("missing 'v' header record")
    return Hypergraph(labels, edges)


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


def edges_as_lines(edges: Iterable[Iterable[int]]) -> str:
    """Render an edge list as whitespace-separated lines (debug helper)."""
    return "\n".join(" ".join(str(v) for v in sorted(edge)) for edge in edges)
