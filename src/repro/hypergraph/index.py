"""The inverted hyperedge index (Section IV-C), in three backends.

For a hyperedge table (one signature partition) the index maps every
vertex occurring in the table to the posting list of hyperedge ids
incident to it.  With the index, ``he(v, S(e_q))`` — all incident
hyperedges of ``v`` having a given signature — is a constant-time lookup,
and candidate generation reduces to unions/intersections of posting lists.

Three interchangeable representations are provided:

``merge`` — :class:`InvertedHyperedgeIndex`
    Posting lists are plain sorted tuples of ints.  Set algebra over
    them is provided by :func:`intersect_sorted` / :func:`union_sorted`,
    implemented as classic merge scans (work proportional to list
    lengths, exactly the quantity the simulated executor charges).

``bitset`` — :class:`BitsetHyperedgeIndex`
    Each partition gets a dense row-id space ``0 .. rows-1`` (row ↔
    edge-id tables) and posting lists become Python big-int bitmasks
    over it.  Unions and intersections are then single ``|`` / ``&``
    operations executed at machine-word speed inside CPython's long
    arithmetic, instead of O(total postings) Python-level merge loops.
    Memory per posting mask is proportional to the *partition* size,
    not the posting count — fine at reproduction scale, wasteful for
    very large partitions with sparse vertices.

``adaptive`` — :class:`AdaptiveHyperedgeIndex`
    A roaring-bitmap-style compromise: the row space is split into
    fixed-width chunks of ``2**CHUNK_BITS`` rows, and each non-empty
    chunk of a posting set is stored either as a sorted tuple of local
    offsets (*array container*, sparse chunks) or as a bitmask over the
    chunk (*bitmask container*, dense chunks), chosen by cardinality
    against :data:`ARRAY_CONTAINER_MAX`.  ``|`` / ``&`` are implemented
    container-pairwise, so dense algebra stays at big-int speed while
    memory is bounded by actual postings rather than partition width.

All backends expose the same ``postings``/``postings_count``/
``vertices`` interface and decode to identical ascending edge-id tuples
at the API boundary.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from .hypergraph import Hypergraph

#: Names of the available index representations, in preference order of
#: the storage layer's default.
INDEX_BACKENDS: Tuple[str, ...] = ("merge", "bitset", "adaptive")

#: Row-space chunk width of the adaptive backend: each chunk covers
#: ``2**CHUNK_BITS`` partition rows.
CHUNK_BITS = 15
CHUNK_SIZE = 1 << CHUNK_BITS

#: Largest cardinality stored as an array container.  Beyond this a
#: chunk flips to a bitmask container.  CPython's big-int ``|``/``&``
#: run a C loop over 30-bit digits while array merges pay Python-level
#: per-element iteration, so the perf break-even sits far below
#: roaring's classic 4096: unions over containers of more than a
#: handful of entries are already cheaper as masks.  4 keeps the long
#: tail of genuinely sparse vertices as arrays — in power-law data
#: that tail is most of the vertex set, which is the memory win — and
#: puts every hot posting set on the big-int fast path.
ARRAY_CONTAINER_MAX = 4

#: A container is either a sorted tuple of local row offsets (array
#: container) or an int bitmask over the chunk (bitmask container); a
#: chunk map is ``{chunk index: container}`` with empty chunks absent.
ChunkMap = Dict[int, object]


class InvertedHyperedgeIndex:
    """Vertex → sorted posting list of incident edge ids, for one partition."""

    #: Backend tag consulted by candidate generation for dispatch.
    backend = "merge"

    __slots__ = ("_postings", "_entries")

    def __init__(self, postings: Dict[int, Tuple[int, ...]]) -> None:
        self._postings = postings
        self._entries = sum(len(plist) for plist in postings.values())

    @classmethod
    def build(
        cls, graph: Hypergraph, edge_ids: Sequence[int]
    ) -> "InvertedHyperedgeIndex":
        """Build the index over ``edge_ids`` (must be ascending)."""
        postings: Dict[int, List[int]] = {}
        for edge_id in edge_ids:
            vertices = graph.slot_vertices(edge_id)
            if vertices is None:  # tombstoned slot: no postings
                continue
            for vertex in vertices:
                postings.setdefault(vertex, []).append(edge_id)
        return cls({vertex: tuple(plist) for vertex, plist in postings.items()})

    def append_edge(self, edge_id: int, vertices) -> None:
        """Incremental insert: ``edge_id`` must exceed every indexed id
        (fresh dynamic ids always do), so appending keeps every posting
        tuple ascending.  Tuples are replaced, never mutated — existing
        references (memoised unions, in-flight candidate sets) keep
        seeing the pre-mutation list."""
        postings = self._postings
        self._entries += len(vertices)
        for vertex in vertices:
            existing = postings.get(vertex)
            postings[vertex] = (
                (edge_id,) if existing is None else existing + (edge_id,)
            )

    def remove_edge(self, row: int, edge_id: int, vertices) -> None:
        """Incremental delete: drop ``edge_id`` from its vertices'
        posting tuples (``row`` is unused — the merge backend has no row
        space).  Emptied posting lists are dropped entirely, matching a
        from-scratch rebuild."""
        postings = self._postings
        self._entries -= len(vertices)
        for vertex in vertices:
            remaining = tuple(
                other for other in postings[vertex] if other != edge_id
            )
            if remaining:
                postings[vertex] = remaining
            else:
                del postings[vertex]

    def postings(self, vertex: int) -> Tuple[int, ...]:
        """Posting list for ``vertex`` (empty tuple if absent)."""
        return self._postings.get(vertex, ())

    def postings_count(self, vertex: int) -> int:
        """Number of partition edges incident to ``vertex`` (O(1))."""
        return len(self._postings.get(vertex, ()))

    def vertices(self) -> Iterable[int]:
        """All vertices appearing in this partition."""
        return self._postings.keys()

    @property
    def num_entries(self) -> int:
        """Total posting entries (== sum of arities of indexed edges;
        O(1), kept by the build, inserts and deletes)."""
        return self._entries

    def __contains__(self, vertex: int) -> bool:
        return vertex in self._postings

    def __len__(self) -> int:
        return len(self._postings)


class BitsetHyperedgeIndex:
    """Vertex → bitmask of incident partition rows, plus row ↔ edge tables.

    Rows number the partition's edges ``0 .. rows-1`` in ascending
    edge-id order, so bit ``r`` of a posting mask stands for edge
    ``row_to_edge[r]`` and decoding a mask lowest-bit-first yields an
    ascending edge-id tuple — the same boundary representation the merge
    backend produces.  ``union_mask`` / ``intersect_mask`` over several
    vertices are then a handful of C-speed ``|`` / ``&`` operations.
    """

    backend = "bitset"

    __slots__ = ("_row_to_edge", "_masks", "_entries")

    def __init__(
        self, row_to_edge: Tuple[int, ...], masks: Dict[int, int]
    ) -> None:
        self._row_to_edge = row_to_edge
        self._masks = masks
        self._entries = sum(mask.bit_count() for mask in masks.values())

    @classmethod
    def build(
        cls, graph: Hypergraph, edge_ids: Sequence[int]
    ) -> "BitsetHyperedgeIndex":
        """Build the index over ``edge_ids`` (must be ascending)."""
        row_to_edge = tuple(edge_ids)
        masks: Dict[int, int] = {}
        for row, edge_id in enumerate(row_to_edge):
            vertices = graph.slot_vertices(edge_id)
            if vertices is None:  # tombstone: row allocated, bits clear
                continue
            bit = 1 << row
            for vertex in vertices:
                masks[vertex] = masks.get(vertex, 0) | bit
        return cls(row_to_edge, masks)

    def append_edge(self, edge_id: int, vertices) -> None:
        """Incremental insert: allocate the next row, set its bits."""
        bit = 1 << len(self._row_to_edge)
        self._row_to_edge = self._row_to_edge + (edge_id,)
        self._entries += len(vertices)
        masks = self._masks
        for vertex in vertices:
            masks[vertex] = masks.get(vertex, 0) | bit
        return None

    def remove_edge(self, row: int, edge_id: int, vertices) -> None:
        """Incremental delete: clear the row's bits, keep the row
        allocated (tombstone) so later rows never shift.  Vertices whose
        mask empties are dropped, matching a from-scratch rebuild."""
        clear = ~(1 << row)
        self._entries -= len(vertices)
        masks = self._masks
        for vertex in vertices:
            mask = masks.get(vertex, 0) & clear
            if mask:
                masks[vertex] = mask
            else:
                masks.pop(vertex, None)

    @property
    def row_to_edge(self) -> Tuple[int, ...]:
        """The row → edge-id translation table (read-only)."""
        return self._row_to_edge

    def postings_mask(self, vertex: int) -> int:
        """Bitmask of rows incident to ``vertex`` (0 if absent)."""
        return self._masks.get(vertex, 0)

    def decode_mask(self, mask: int) -> Tuple[int, ...]:
        """Translate a row bitmask back to an ascending edge-id tuple."""
        row_to_edge = self._row_to_edge
        result: List[int] = []
        while mask:
            low = mask & -mask
            result.append(row_to_edge[low.bit_length() - 1])
            mask ^= low
        return tuple(result)

    def iter_mask(self, mask: int) -> Iterator[int]:
        """Lazily yield the edge ids of a row bitmask in ascending order."""
        row_to_edge = self._row_to_edge
        while mask:
            low = mask & -mask
            yield row_to_edge[low.bit_length() - 1]
            mask ^= low

    def postings(self, vertex: int) -> Tuple[int, ...]:
        """Posting list for ``vertex`` (empty tuple if absent)."""
        return self.decode_mask(self._masks.get(vertex, 0))

    def postings_count(self, vertex: int) -> int:
        """Number of partition edges incident to ``vertex`` (popcount)."""
        return self._masks.get(vertex, 0).bit_count()

    def vertices(self) -> Iterable[int]:
        """All vertices appearing in this partition."""
        return self._masks.keys()

    @property
    def num_rows(self) -> int:
        """Size of the dense row-id space (== partition cardinality)."""
        return len(self._row_to_edge)

    @property
    def num_entries(self) -> int:
        """Total posting entries (== sum of arities of indexed edges;
        O(1), kept by the build, inserts and deletes)."""
        return self._entries

    def __contains__(self, vertex: int) -> bool:
        return vertex in self._masks

    def __len__(self) -> int:
        return len(self._masks)


# ----------------------------------------------------------------------
# Adaptive (roaring-style) containers
# ----------------------------------------------------------------------
# All container/chunk-map operations are pure: inputs are never mutated,
# so index-internal chunk maps can be handed to the set algebra and its
# results memoised without defensive copies.


def array_to_bits(offsets: Sequence[int]) -> int:
    """Sorted offset tuple → chunk bitmask."""
    bits = 0
    for offset in offsets:
        bits |= 1 << offset
    return bits


def bits_to_array(bits: int) -> Tuple[int, ...]:
    """Chunk bitmask → ascending offset tuple."""
    offsets: List[int] = []
    while bits:
        low = bits & -bits
        offsets.append(low.bit_length() - 1)
        bits ^= low
    return tuple(offsets)


def _normalise_container(offsets: Sequence[int], array_max: int):
    """Pick the container representation for a sorted offset sequence."""
    if len(offsets) > array_max:
        return array_to_bits(offsets)
    return tuple(offsets)


def container_intersect(first, second):
    """Intersection of two containers (array result stays an array)."""
    if isinstance(first, int):
        if isinstance(second, int):
            return first & second
        return tuple(x for x in second if (first >> x) & 1)
    if isinstance(second, int):
        return tuple(x for x in first if (second >> x) & 1)
    return intersect_sorted(first, second)


def container_union(first, second, array_max: int = ARRAY_CONTAINER_MAX):
    """Union of two containers, re-normalised against ``array_max``."""
    if isinstance(first, int):
        if isinstance(second, int):
            return first | second
        return first | array_to_bits(second)
    if isinstance(second, int):
        return second | array_to_bits(first)
    merged = union_sorted(first, second)
    if len(merged) > array_max:
        return array_to_bits(merged)
    return merged


def chunks_count(chunks: ChunkMap) -> int:
    """Total cardinality of a chunk map."""
    total = 0
    for container in chunks.values():
        if isinstance(container, int):
            total += container.bit_count()
        else:
            total += len(container)
    return total


def chunks_union_many(
    maps: Sequence[ChunkMap], array_max: int = ARRAY_CONTAINER_MAX
) -> ChunkMap:
    """Union of several chunk maps, container-pairwise per chunk.

    Containers of the same chunk are gathered first and combined once:
    any bitmask input (or a combined array cardinality past the
    threshold) makes the chunk dense, so arrays are OR-folded into one
    bitmask instead of repeatedly merge-scanned.
    """
    if not maps:
        return {}
    if len(maps) == 1:
        return maps[0]
    per_chunk: Dict[int, List[object]] = {}
    for chunk_map in maps:
        for chunk, container in chunk_map.items():
            per_chunk.setdefault(chunk, []).append(container)
    out: ChunkMap = {}
    for chunk, containers in per_chunk.items():
        if len(containers) == 1:
            out[chunk] = containers[0]
        else:
            out[chunk] = containers_union_many(containers, array_max)
    return out


def containers_union_many(
    containers: Sequence[object], array_max: int = ARRAY_CONTAINER_MAX
):
    """Union of several containers of the *same* chunk.

    The one-chunk core of :func:`chunks_union_many`, exposed separately
    so the single-chunk fast path (every partition no larger than one
    chunk, the common case at reproduction scale) can fold posting
    containers without any chunk-map staging.
    """
    bits = 0
    arrays: List[Sequence[int]] = []
    for container in containers:
        if isinstance(container, int):
            bits |= container
        else:
            arrays.append(container)
    if not arrays:
        return bits
    if bits or sum(len(a) for a in arrays) > array_max:
        for array in arrays:
            for offset in array:
                bits |= 1 << offset
        return bits
    if len(arrays) == 1:
        return arrays[0]
    # Arrays total at most array_max offsets: a set-dedup + sort beats a
    # heap merge at this size by a wide margin.
    return tuple(sorted({offset for array in arrays for offset in array}))


def chunks_from_rows(
    rows: Sequence[int],
    chunk_bits: int = CHUNK_BITS,
    array_max: int = ARRAY_CONTAINER_MAX,
) -> ChunkMap:
    """Bucket *ascending* row ids into a normalised chunk map.

    The inverse of flattening a chunk map to rows; used when a row set
    produced outside the index (validation survivors, wire payloads
    shifted into another row space) has to re-enter the adaptive
    representation.
    """
    offset_mask = (1 << chunk_bits) - 1
    raw: Dict[int, List[int]] = {}
    for row in rows:
        raw.setdefault(row >> chunk_bits, []).append(row & offset_mask)
    return {
        chunk: _normalise_container(offsets, array_max)
        for chunk, offsets in raw.items()
    }


def mask_from_chunks(chunks: ChunkMap, chunk_bits: int = CHUNK_BITS) -> int:
    """Flatten a chunk map back into one row bitmask."""
    mask = 0
    for chunk, container in chunks.items():
        if not isinstance(container, int):
            container = array_to_bits(container)
        mask |= container << (chunk << chunk_bits)
    return mask


def chunks_intersect(first: ChunkMap, second: ChunkMap) -> ChunkMap:
    """Intersection of two chunk maps; empty chunks are dropped."""
    if len(first) > len(second):
        first, second = second, first
    out: ChunkMap = {}
    for chunk, container in first.items():
        other = second.get(chunk)
        if other is None:
            continue
        merged = container_intersect(container, other)
        if merged if isinstance(merged, int) else len(merged):
            out[chunk] = merged
    return out


class AdaptiveHyperedgeIndex:
    """Vertex → roaring-style chunked containers over partition rows.

    Rows number the partition's edges ``0 .. rows-1`` in ascending
    edge-id order (as in the bitset backend) and are split into chunks
    of ``2**chunk_bits`` rows.  A vertex's posting set keeps, per
    non-empty chunk, either a sorted tuple of local offsets or a chunk
    bitmask, by cardinality against ``array_max`` — the CRoaring/
    pyroaring container scheme adapted to Python big-ints.  Set algebra
    over chunk maps is provided by :func:`chunks_union_many` /
    :func:`chunks_intersect`.
    """

    backend = "adaptive"

    __slots__ = (
        "_row_to_edge",
        "_chunk_maps",
        "_flat",
        "_entries",
        "chunk_bits",
        "array_max",
    )

    def __init__(
        self,
        row_to_edge: Tuple[int, ...],
        chunk_maps: Dict[int, ChunkMap],
        chunk_bits: int = CHUNK_BITS,
        array_max: int = ARRAY_CONTAINER_MAX,
    ) -> None:
        self._row_to_edge = row_to_edge
        self._chunk_maps = chunk_maps
        self._entries = sum(
            chunks_count(chunks) for chunks in chunk_maps.values()
        )
        self.chunk_bits = chunk_bits
        self.array_max = array_max
        # Single-chunk fast path: when the whole partition fits one chunk
        # (the common case below 2**chunk_bits rows) the chunk maps all
        # degenerate to ``{0: container}``, so the set algebra can work
        # on bare containers with zero chunk-map staging.  ``_flat``
        # aliases the same container objects; None on multi-chunk
        # partitions.
        if len(row_to_edge) <= (1 << chunk_bits):
            # A vertex persisted with an empty posting list has an empty
            # chunk map; leaving it out of _flat makes flat.get() treat
            # it as empty, matching the other backends.
            self._flat = {
                vertex: chunks[0]
                for vertex, chunks in chunk_maps.items()
                if chunks
            }
        else:
            self._flat = None

    @property
    def flat_containers(self) -> "Dict[int, object] | None":
        """``{vertex: container}`` when the partition fits one chunk,
        else None.  Treat as immutable."""
        return self._flat

    @property
    def row_to_edge(self) -> Tuple[int, ...]:
        """The row → edge-id translation table (read-only)."""
        return self._row_to_edge

    def decode_mask(self, mask: int) -> Tuple[int, ...]:
        """Translate a *single-chunk* bitmask (chunk 0: offsets == rows)
        back to an ascending edge-id tuple — lets single-chunk results
        share the bitset backend's mask consumers."""
        row_to_edge = self._row_to_edge
        result: List[int] = []
        while mask:
            low = mask & -mask
            result.append(row_to_edge[low.bit_length() - 1])
            mask ^= low
        return tuple(result)

    def iter_mask(self, mask: int) -> Iterator[int]:
        """Lazily yield the edge ids of a single-chunk bitmask."""
        row_to_edge = self._row_to_edge
        while mask:
            low = mask & -mask
            yield row_to_edge[low.bit_length() - 1]
            mask ^= low

    @classmethod
    def build(
        cls,
        graph: Hypergraph,
        edge_ids: Sequence[int],
        chunk_bits: int = CHUNK_BITS,
        array_max: int = ARRAY_CONTAINER_MAX,
    ) -> "AdaptiveHyperedgeIndex":
        """Build the index over ``edge_ids`` (must be ascending)."""
        row_to_edge = tuple(edge_ids)
        offset_mask = (1 << chunk_bits) - 1
        raw: Dict[int, Dict[int, List[int]]] = {}
        for row, edge_id in enumerate(row_to_edge):
            vertices = graph.slot_vertices(edge_id)
            if vertices is None:  # tombstone: row allocated, no postings
                continue
            chunk, offset = row >> chunk_bits, row & offset_mask
            for vertex in vertices:
                raw.setdefault(vertex, {}).setdefault(chunk, []).append(offset)
        # Offsets were appended in ascending row order, hence sorted.
        chunk_maps = {
            vertex: {
                chunk: _normalise_container(offsets, array_max)
                for chunk, offsets in chunks.items()
            }
            for vertex, chunks in raw.items()
        }
        return cls(row_to_edge, chunk_maps, chunk_bits, array_max)

    # -- incremental maintenance ---------------------------------------
    # Containers and per-vertex chunk-map dicts are REPLACED, never
    # mutated in place: the whole container algebra (and the anchor-
    # union memo) treats them as immutable values, so an in-flight
    # reference must keep seeing the pre-mutation object.  Only the
    # touched (vertex, chunk) containers re-choose their representation
    # (array vs bitmask, via _normalise_container) — exactly the
    # decision a from-scratch rebuild would make at the new
    # cardinality, which is what keeps incremental and rebuilt indices
    # structurally identical (pinned by the mutation oracle).

    def append_edge(self, edge_id: int, vertices) -> None:
        """Incremental insert: allocate the next row, post its vertices."""
        row = len(self._row_to_edge)
        self._row_to_edge = self._row_to_edge + (edge_id,)
        self._entries += len(vertices)
        if self._flat is not None and len(self._row_to_edge) > (
            1 << self.chunk_bits
        ):
            # The partition outgrew the single-chunk fast path; a
            # rebuild at this size would not have it either.
            self._flat = None
        chunk = row >> self.chunk_bits
        offset = row & ((1 << self.chunk_bits) - 1)
        bit = 1 << offset
        array_max = self.array_max
        for vertex in vertices:
            chunks = self._chunk_maps.get(vertex)
            container = None if chunks is None else chunks.get(chunk)
            if container is None:
                updated: object = (offset,)
            elif isinstance(container, int):
                updated = container | bit
            else:
                # New rows are the partition maximum: appending keeps
                # the offset tuple sorted; re-choose the representation
                # at the new cardinality.
                updated = _normalise_container(
                    container + (offset,), array_max
                )
            new_chunks = dict(chunks) if chunks else {}
            new_chunks[chunk] = updated
            self._chunk_maps[vertex] = new_chunks
            if self._flat is not None:
                self._flat[vertex] = updated

    def remove_edge(self, row: int, edge_id: int, vertices) -> None:
        """Incremental delete: clear the row from its vertices' chunk
        containers; the row stays allocated (tombstone).  Touched
        containers re-choose array vs bitmask at the shrunken
        cardinality; emptied containers/vertices are dropped, matching
        a from-scratch rebuild."""
        chunk = row >> self.chunk_bits
        offset = row & ((1 << self.chunk_bits) - 1)
        array_max = self.array_max
        for vertex in vertices:
            chunks = self._chunk_maps.get(vertex)
            container = None if chunks is None else chunks.get(chunk)
            if container is None:
                continue
            self._entries -= 1
            if isinstance(container, int):
                bits = container & ~(1 << offset)
                updated = (
                    _normalise_container(bits_to_array(bits), array_max)
                    if bits
                    else None
                )
            else:
                remaining = tuple(o for o in container if o != offset)
                updated = remaining if remaining else None
            new_chunks = dict(chunks)
            if updated is None:
                new_chunks.pop(chunk, None)
            else:
                new_chunks[chunk] = updated
            if new_chunks:
                self._chunk_maps[vertex] = new_chunks
            else:
                del self._chunk_maps[vertex]
            if self._flat is not None:
                if updated is None:
                    self._flat.pop(vertex, None)
                else:
                    self._flat[vertex] = updated

    _EMPTY: ChunkMap = {}

    def postings_chunks(self, vertex: int) -> ChunkMap:
        """The vertex's chunk map ({} if absent).  Treat as immutable."""
        return self._chunk_maps.get(vertex, self._EMPTY)

    def iter_chunks(self, chunks: ChunkMap) -> Iterator[int]:
        """Lazily yield the edge ids of a chunk map in ascending order."""
        row_to_edge = self._row_to_edge
        chunk_bits = self.chunk_bits
        for chunk in sorted(chunks):
            base = chunk << chunk_bits
            container = chunks[chunk]
            if isinstance(container, int):
                while container:
                    low = container & -container
                    yield row_to_edge[base + low.bit_length() - 1]
                    container ^= low
            else:
                for offset in container:
                    yield row_to_edge[base + offset]

    def decode_chunks(self, chunks: ChunkMap) -> Tuple[int, ...]:
        """Translate a chunk map back to an ascending edge-id tuple."""
        row_to_edge = self._row_to_edge
        chunk_bits = self.chunk_bits
        result: List[int] = []
        append = result.append
        for chunk in sorted(chunks):
            base = chunk << chunk_bits
            container = chunks[chunk]
            if isinstance(container, int):
                while container:
                    low = container & -container
                    append(row_to_edge[base + low.bit_length() - 1])
                    container ^= low
            else:
                for offset in container:
                    append(row_to_edge[base + offset])
        return tuple(result)

    def postings(self, vertex: int) -> Tuple[int, ...]:
        """Posting list for ``vertex`` (empty tuple if absent)."""
        return self.decode_chunks(self.postings_chunks(vertex))

    def postings_count(self, vertex: int) -> int:
        """Number of partition edges incident to ``vertex``."""
        return chunks_count(self.postings_chunks(vertex))

    def container_kinds(self) -> Dict[int, Tuple[Tuple[int, str], ...]]:
        """Per-vertex ``(chunk, "array"|"bits")`` choices — the adaptive
        representation decisions, exposed for tests."""
        return {
            vertex: tuple(
                (chunk, "bits" if isinstance(container, int) else "array")
                for chunk, container in sorted(chunks.items())
            )
            for vertex, chunks in self._chunk_maps.items()
        }

    def vertices(self) -> Iterable[int]:
        """All vertices appearing in this partition."""
        return self._chunk_maps.keys()

    @property
    def num_rows(self) -> int:
        """Size of the dense row-id space (== partition cardinality)."""
        return len(self._row_to_edge)

    @property
    def num_entries(self) -> int:
        """Total posting entries (== sum of arities of indexed edges;
        O(1), kept by the build, inserts and deletes)."""
        return self._entries

    def __contains__(self, vertex: int) -> bool:
        return vertex in self._chunk_maps

    def __len__(self) -> int:
        return len(self._chunk_maps)


def build_index(
    backend: str, graph: Hypergraph, edge_ids: Sequence[int]
):
    """Build the index of the requested ``backend`` over a partition."""
    if backend == "merge":
        return InvertedHyperedgeIndex.build(graph, edge_ids)
    if backend == "bitset":
        return BitsetHyperedgeIndex.build(graph, edge_ids)
    if backend == "adaptive":
        return AdaptiveHyperedgeIndex.build(graph, edge_ids)
    raise ValueError(
        f"unknown index backend {backend!r}; expected one of {INDEX_BACKENDS}"
    )


def intersect_sorted(first: Sequence[int], second: Sequence[int]) -> Tuple[int, ...]:
    """Intersection of two ascending sequences, returned ascending.

    >>> intersect_sorted((1, 3, 5, 7), (3, 4, 5))
    (3, 5)
    """
    result: List[int] = []
    i = j = 0
    len_first, len_second = len(first), len(second)
    while i < len_first and j < len_second:
        a, b = first[i], second[j]
        if a == b:
            result.append(a)
            i += 1
            j += 1
        elif a < b:
            i += 1
        else:
            j += 1
    return tuple(result)


def intersect_many(lists: Sequence[Sequence[int]]) -> Tuple[int, ...]:
    """Intersection of several ascending sequences (shortest-first order).

    Intersecting the two shortest lists first keeps intermediate results
    small, the standard heuristic for multi-way intersection.
    An empty input sequence is a caller error (the neutral element of
    intersection is "everything"); callers guard against it.
    """
    if not lists:
        raise ValueError("intersect_many requires at least one list")
    ordered = sorted(lists, key=len)
    result: Sequence[int] = ordered[0]
    for other in ordered[1:]:
        if not result:
            break
        result = intersect_sorted(result, other)
    return tuple(result)


def union_sorted(first: Sequence[int], second: Sequence[int]) -> Tuple[int, ...]:
    """Union of two ascending sequences, returned ascending and deduplicated.

    >>> union_sorted((1, 3), (2, 3, 4))
    (1, 2, 3, 4)
    """
    result: List[int] = []
    i = j = 0
    len_first, len_second = len(first), len(second)
    while i < len_first and j < len_second:
        a, b = first[i], second[j]
        if a == b:
            result.append(a)
            i += 1
            j += 1
        elif a < b:
            result.append(a)
            i += 1
        else:
            result.append(b)
            j += 1
    result.extend(first[i:])
    result.extend(second[j:])
    return tuple(result)


def union_many(lists: Sequence[Sequence[int]]) -> Tuple[int, ...]:
    """Union of several ascending sequences (empty input yields empty).

    A heap-based k-way merge: each input is consumed exactly once, so
    the cost is O(N log k) for N total postings over k lists, instead of
    the O(k·N) a pairwise left-fold degrades to on high-degree anchor
    vertices with many posting lists.
    """
    populated = [lst for lst in lists if lst]
    if not populated:
        return ()
    if len(populated) == 1:
        return tuple(populated[0])
    result: List[int] = []
    last = None
    for value in heapq.merge(*populated):
        if value != last:
            result.append(value)
            last = value
    return tuple(result)
