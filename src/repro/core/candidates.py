"""Hyperedge candidate generation (Algorithm 4 of the paper).

Given a partial embedding and the next query hyperedge in the matching
order, candidates are data hyperedges that

* carry the query hyperedge's signature (Observation V.1) — enforced
  structurally by probing only that signature's partition,
* are incident, for every previously matched adjacent query hyperedge
  ``e`` and every shared query vertex ``u ∈ e ∩ e_q``, to some vertex of
  ``f(e)`` with matching label and partial degree (Observations V.2/V.4),
  excluding vertices owned by non-adjacent matched hyperedges
  (Observation V.3).

Each shared vertex contributes the union of the posting lists of its
possible images; the final candidate set is the intersection of those
unions — pure set algebra over the inverted hyperedge index, no
backtracking.  The algebra dispatches on the partition's index backend:
merge scans over sorted tuples, bitwise ``|``/``&`` over row-id bitmasks
(:class:`repro.hypergraph.BitsetHyperedgeIndex`), or container-pairwise
``|``/``&`` over roaring-style chunk maps
(:class:`repro.hypergraph.AdaptiveHyperedgeIndex`).

The pipeline is *mask-native*: :func:`generate_candidate_set` returns an
opaque :class:`CandidateSet` that keeps the backend's own representation
(tuple, bitmask, or chunk map) and decodes lazily.  Validation iterates
set bits directly and only accepted expansions ever materialise edge-id
tuples; :func:`generate_candidates` is the decoded-tuple convenience
wrapper kept for tests, benchmarks and external callers.

Two cost models feed ``counters.work_units`` (see
:mod:`repro.core.counters`): the merge path charges posting entries
scanned, the mask paths charge vertices scanned plus masks touched plus
the result cardinality.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from typing import Dict, Iterator, List, Sequence, Set, Tuple

from ..hypergraph import (
    chunks_count,
    chunks_intersect,
    chunks_union_many,
    Hypergraph,
    intersect_many,
    union_many,
)
from ..hypergraph.index import (
    CHUNK_BITS,
    bits_to_array,
    chunks_from_rows,
    container_intersect,
    mask_from_chunks,
)
from ..hypergraph.storage import HyperedgePartition
from .counters import MatchCounters
from .plan import StepPlan

#: Sentinel for "no anchor processed yet" in the adaptive fast path
#: (a real result may be a falsy empty container).
_NO_RESULT = object()


def vertex_step_map(
    data: Hypergraph, matched_edges: Sequence[int]
) -> Dict[int, Set[int]]:
    """Map each data vertex of the partial embedding to its incident steps.

    ``vmap[v]`` is the set of step indices whose matched data hyperedge
    contains ``v``.  This is the only derived state a task needs; it is
    rebuilt from the matched edge ids in O(total arity), which keeps tasks
    self-contained (a task stores just a tuple of edge ids — the property
    behind the scheduler's memory bound, Theorem VI.1).
    """
    vmap: Dict[int, Set[int]] = {}
    for step, edge_id in enumerate(matched_edges):
        for vertex in data.edge(edge_id):
            vmap.setdefault(vertex, set()).add(step)
    return vmap


def vertex_step_tuples(
    data: Hypergraph, matched_edges: Sequence[int]
) -> Dict[int, Tuple[int, ...]]:
    """``vertex_step_map`` with ascending step *tuples* as values."""
    steps: Dict[int, Tuple[int, ...]] = {}
    for step, edge_id in enumerate(matched_edges):
        for vertex in data.edge(edge_id):
            steps[vertex] = steps.get(vertex, ()) + (step,)
    return steps


def vertex_step_masks(
    data: Hypergraph, matched_edges: Sequence[int]
) -> Dict[int, int]:
    """``vertex_step_map`` with step *bitmasks* as values (bit ``s`` set
    iff the vertex occurs in step ``s``) — what validation's kernel
    (:func:`repro.core.validation.validate_candidates`) reads."""
    masks: Dict[int, int] = {}
    for step, edge_id in enumerate(matched_edges):
        bit = 1 << step
        for vertex in data.edge(edge_id):
            masks[vertex] = masks.get(vertex, 0) | bit
    return masks


class VertexStepState:
    """A ``vertex_step_map`` maintained by push/pop deltas.

    Tasks stay self-contained tuples of edge ids (Theorem VI.1's memory
    bound is untouched), but an executor processing many tasks can keep
    one of these per loop and :meth:`advance` it to each task: the map is
    patched by popping back to the longest common prefix with the
    previous task and pushing the differing suffix.  Consecutive tasks
    in the LIFO stack, the BFS frontier and a worker's deque are siblings
    or parent/child almost always, so the usual delta is one pop plus
    one push — O(arity) instead of the O(total arity) full rebuild.

    Alongside the step *sets* (Algorithm 4 reads their sizes as partial
    degrees) the state maintains the per-vertex step *bitmasks*
    (:attr:`step_masks`, bit ``s`` set iff the vertex occurs in step
    ``s``) that Algorithm 5's kernel compares on every backend.
    """

    __slots__ = ("_graph", "_matched", "_vmap", "_masks")

    def __init__(
        self, graph: Hypergraph, matched_edges: Sequence[int] = ()
    ) -> None:
        self._graph = graph
        self._matched: List[int] = []
        self._vmap: Dict[int, Set[int]] = {}
        self._masks: Dict[int, int] = {}
        for edge_id in matched_edges:
            self.push(edge_id)

    @property
    def vmap(self) -> Dict[int, Set[int]]:
        """The live map — read-only to callers; mutate via push/pop."""
        return self._vmap

    @property
    def step_tuples(self) -> Dict[int, Tuple[int, ...]]:
        """Per-vertex ascending step tuples, derived on access (a
        snapshot: nothing in the engine reads them any more)."""
        return {v: tuple(sorted(steps)) for v, steps in self._vmap.items()}

    @property
    def step_masks(self) -> Dict[int, int]:
        """Per-vertex step bitmasks (live) — read-only to callers."""
        return self._masks

    @property
    def matched(self) -> Tuple[int, ...]:
        """The matched edge ids the state currently reflects."""
        return tuple(self._matched)

    @property
    def depth(self) -> int:
        return len(self._matched)

    def __len__(self) -> int:
        return len(self._vmap)

    def push(self, edge_id: int) -> None:
        """Extend the embedding by ``edge_id`` at the next step index."""
        step = len(self._matched)
        self._matched.append(edge_id)
        bit = 1 << step
        vmap = self._vmap
        step_masks = self._masks
        for vertex in self._graph.edge(edge_id):
            steps = vmap.get(vertex)
            if steps is None:
                vmap[vertex] = {step}
                step_masks[vertex] = bit
            else:
                steps.add(step)
                step_masks[vertex] |= bit

    def pop(self) -> int:
        """Undo the most recent :meth:`push`; returns the popped edge id."""
        edge_id = self._matched.pop()
        step = len(self._matched)
        bit = 1 << step
        vmap = self._vmap
        step_masks = self._masks
        for vertex in self._graph.edge(edge_id):
            steps = vmap[vertex]
            steps.discard(step)
            if not steps:
                del vmap[vertex]
                del step_masks[vertex]
            else:
                step_masks[vertex] ^= bit
        return edge_id

    def advance(self, matched_edges: Sequence[int]) -> Dict[int, Set[int]]:
        """Re-point the state at ``matched_edges`` and return its vmap.

        Equivalent to ``vertex_step_map(graph, matched_edges)`` but costs
        only the symmetric difference with the previous position.
        """
        current = self._matched
        common = 0
        limit = min(len(current), len(matched_edges))
        while common < limit and current[common] == matched_edges[common]:
            common += 1
        while len(self._matched) > common:
            self.pop()
        for edge_id in matched_edges[common:]:
            self.push(edge_id)
        return self._vmap


# ----------------------------------------------------------------------
# Opaque candidate sets (the mask-native boundary of Algorithm 4)
# ----------------------------------------------------------------------


class CandidateSet:
    """Opaque result of Algorithm 4's set algebra.

    Keeps the owning backend's native representation; iteration yields
    ascending edge ids without materialising the whole set, and
    :meth:`to_tuple` decodes only when a caller really needs the tuple
    boundary (tests, benchmarks, the ``generate_candidates`` wrapper).
    """

    __slots__ = ()

    def to_tuple(self) -> Tuple[int, ...]:
        raise NotImplementedError

    def to_bytes(self, row_offset: int = 0) -> bytes:
        """Serialise to the compact wire format (see module helpers).

        ``row_offset`` translates *row* coordinates into a wider row
        space before encoding — a store shard passes its global row base
        so the payload arrives in global coordinates (edge-id payloads
        ignore it: edge ids are global already).  Decode with
        :meth:`from_bytes` against the receiving side's index.
        """
        raise NotImplementedError

    @staticmethod
    def from_bytes(payload: bytes, index=None) -> "CandidateSet":
        """Reconstruct a candidate set from :meth:`to_bytes` output.

        ``index`` is the receiving side's owning index; required for
        mask and chunk payloads (rows are meaningless without its
        ``row_to_edge`` table) and ignored for edge-id tuples.  The
        payload is normalised to the index's native representation, so
        a single-chunk shard's bare-mask payload lands as a chunk map
        on an adaptive reader and vice versa.
        """
        return candidate_set_from_bytes(payload, index)

    def __iter__(self) -> Iterator[int]:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def __bool__(self) -> bool:
        return len(self) > 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CandidateSet):
            return self.to_tuple() == other.to_tuple()
        if isinstance(other, tuple):
            return self.to_tuple() == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.to_tuple())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_tuple()!r})"


class TupleCandidates(CandidateSet):
    """Merge-backend (and whole-partition) candidates: already a tuple."""

    __slots__ = ("_edges",)

    def __init__(self, edges: Tuple[int, ...]) -> None:
        self._edges = edges

    def to_tuple(self) -> Tuple[int, ...]:
        return self._edges

    def to_bytes(self, row_offset: int = 0) -> bytes:
        # Edge ids are global; row_offset only applies to row payloads.
        return encode_tuple_payload(self._edges)

    def __iter__(self) -> Iterator[int]:
        return iter(self._edges)

    def __len__(self) -> int:
        return len(self._edges)


EMPTY_CANDIDATES = TupleCandidates(())


class MaskCandidates(CandidateSet):
    """Bitset-backend candidates: a row bitmask plus its owning index.

    Hot consumers (``HGMatch.expand``, the bench's mask-native replay)
    should read :attr:`mask` / :attr:`row_to_edge` and run the bit-scan
    loop inline — a generator's per-item resume costs more than the
    whole row decode it replaces.
    """

    __slots__ = ("_index", "_mask")

    def __init__(self, index, mask: int) -> None:
        self._index = index
        self._mask = mask

    @property
    def mask(self) -> int:
        return self._mask

    @property
    def index(self):
        """The owning index (read-only)."""
        return self._index

    @property
    def row_to_edge(self) -> Tuple[int, ...]:
        return self._index.row_to_edge

    def to_tuple(self) -> Tuple[int, ...]:
        return self._index.decode_mask(self._mask)

    def to_bytes(self, row_offset: int = 0) -> bytes:
        return encode_mask_payload(self._mask, row_offset)

    def __iter__(self) -> Iterator[int]:
        return self._index.iter_mask(self._mask)

    def __len__(self) -> int:
        return self._mask.bit_count()


class ChunkCandidates(CandidateSet):
    """Adaptive-backend candidates: a chunk map plus its owning index."""

    __slots__ = ("_index", "_chunks", "_count")

    def __init__(self, index, chunks, count: "int | None" = None) -> None:
        self._index = index
        self._chunks = chunks
        self._count = chunks_count(chunks) if count is None else count

    @property
    def chunks(self):
        return self._chunks

    @property
    def index(self):
        """The owning index (read-only)."""
        return self._index

    def to_tuple(self) -> Tuple[int, ...]:
        return self._index.decode_chunks(self._chunks)

    def to_bytes(self, row_offset: int = 0) -> bytes:
        if row_offset == 0:
            return encode_chunks_payload(self._chunks)
        # Shifting by an arbitrary offset can split containers across
        # chunk boundaries, so translate through explicit rows.
        chunk_bits = self._index.chunk_bits
        rows: List[int] = []
        for chunk in sorted(self._chunks):
            base = (chunk << chunk_bits) + row_offset
            container = self._chunks[chunk]
            if isinstance(container, int):
                container = bits_to_array(container)
            rows.extend(base + offset for offset in container)
        return encode_chunks_payload(
            chunks_from_rows(rows, chunk_bits, self._index.array_max)
        )

    def __iter__(self) -> Iterator[int]:
        return self._index.iter_chunks(self._chunks)

    def __len__(self) -> int:
        return self._count


# ----------------------------------------------------------------------
# Wire format (the process-sharding seam)
# ----------------------------------------------------------------------
# One tag byte selects the representation; everything else is
# little-endian struct data, so a payload costs bytes proportional to
# the *representation* (mask bits / containers), never a decoded
# edge-id list:
#
#   ``T``  count:u32, then count edge ids as i64 — the merge backend's
#          native tuples (edge ids are global, no row translation).
#   ``M``  offset:u32, then the *local* row bitmask's little-endian
#          bytes.  The decoder shifts rows up by ``offset``, so a
#          shard's payload costs bytes proportional to its local span —
#          never to its global row base (a shard at base 750k with one
#          survivor ships ~6 bytes, not ~94 KB of leading zeros).
#   ``C``  count:u32, then per chunk: index:u32, kind:u8 (0 = array,
#          1 = bitmask), and the container (array: count:u16 + u32
#          offsets; bitmask: length:u32 + little-endian bytes).  Chunk
#          indices absorb the row base, so these are written directly
#          in the target coordinates.
#
# Row payloads (``M``/``C``) land in the row space the caller chose via
# ``to_bytes(row_offset=...)``; writer and reader must agree on the
# chunk width (both default to ``CHUNK_BITS``).  The decoder normalises
# to the receiving index's backend, so shards and the composing engine
# can disagree about *which* row representation is native without ever
# materialising edge-id lists.
#
# Payloads that may cross between independently deployed builds are
# additionally *versioned*: one leading byte (:data:`WIRE_VERSION`)
# precedes the tag, so a host running an older reader rejects a payload
# it cannot parse instead of mis-decoding it (:func:`encode_versioned`
# / :func:`decode_versioned`).  The full byte-level specification lives
# in ``docs/WIRE_FORMAT.md``.

_WIRE_TUPLE = 0x54  # b"T"
_WIRE_MASK = 0x4D  # b"M"
_WIRE_CHUNKS = 0x43  # b"C"
_ARRAY_KIND = 0
_BITS_KIND = 1

#: Row-coordinate ceiling for payloads decoded against an index with no
#: row space of its own (the merge backend).  Mask and chunk payloads
#: carry row *positions* that the decoder turns into bit shifts; a
#: garbled u32 offset or chunk id would otherwise demand a mask of up
#: to 2**47 bits — a MemoryError, not a ValueError.  Indexes that
#: expose ``row_to_edge`` are bounded by their actual row count instead.
_MAX_WIRE_ROW = 1 << 28


def _row_space_limit(index) -> int:
    rows = getattr(index, "row_to_edge", None)
    return _MAX_WIRE_ROW if rows is None else len(rows)

#: Version byte prefixed to candidate payloads that cross a machine
#: boundary.  Bump on any incompatible change to the ``T``/``M``/``C``
#: encodings below; decoders reject unknown versions.
WIRE_VERSION = 1


def encode_versioned(payload: bytes) -> bytes:
    """Prefix a ``to_bytes`` payload with the wire-format version byte."""
    return bytes((WIRE_VERSION,)) + payload


def decode_versioned(data: bytes) -> bytes:
    """Strip (and validate) the version byte of a versioned payload.

    Raises ``ValueError`` on an empty payload or a version this build
    does not speak — the caller decides whether that is fatal for the
    connection (the socket transport treats it as a protocol error).
    """
    if not data:
        raise ValueError("empty versioned candidate payload")
    version = data[0]
    if version != WIRE_VERSION:
        raise ValueError(
            f"unsupported candidate wire version {version}; "
            f"this build speaks version {WIRE_VERSION}"
        )
    return data[1:]


def encode_tuple_payload(edges: Sequence[int]) -> bytes:
    """Wire payload for an ascending edge-id tuple."""
    return struct.pack(f"<BI{len(edges)}q", _WIRE_TUPLE, len(edges), *edges)


def encode_mask_payload(mask: int, row_offset: int = 0) -> bytes:
    """Wire payload for a row bitmask over *local* rows; the decoder
    shifts rows up by ``row_offset`` (see the format notes above)."""
    return struct.pack("<BI", _WIRE_MASK, row_offset) + mask.to_bytes(
        (mask.bit_length() + 7) // 8, "little"
    )


def encode_chunks_payload(chunks) -> bytes:
    """Wire payload for a roaring-style chunk map."""
    parts = [struct.pack("<BI", _WIRE_CHUNKS, len(chunks))]
    for chunk in sorted(chunks):
        container = chunks[chunk]
        if isinstance(container, int):
            data = container.to_bytes((container.bit_length() + 7) // 8, "little")
            parts.append(struct.pack("<IBI", chunk, _BITS_KIND, len(data)))
            parts.append(data)
        else:
            parts.append(
                struct.pack(
                    f"<IBH{len(container)}I",
                    chunk,
                    _ARRAY_KIND,
                    len(container),
                    *container,
                )
            )
    return b"".join(parts)


def candidate_set_from_bytes(payload: bytes, index=None) -> CandidateSet:
    """Decode a :meth:`CandidateSet.to_bytes` payload against ``index``.

    Mask and chunk payloads are normalised to the index's native
    representation (``bitset`` readers get a :class:`MaskCandidates`,
    ``adaptive`` readers a :class:`ChunkCandidates`); tuple payloads
    never need the index at all.  Malformed input of any shape —
    truncation, bit flips, wild length prefixes — raises
    :class:`ValueError`, never an ``IndexError`` or ``struct.error``:
    the decoder is fed bytes straight off the network, and callers
    treat ``ValueError`` as "kill this connection", not "crash".
    """
    try:
        return _candidate_set_from_bytes(payload, index)
    except struct.error as exc:
        raise ValueError(f"malformed candidate payload: {exc}") from None
    except (MemoryError, OverflowError):
        # Belt and braces behind the explicit row-space bounds below: a
        # decoder must never let hostile coordinates turn into an
        # allocation failure.
        raise ValueError(
            "malformed candidate payload: implausible row coordinates"
        ) from None


def _candidate_set_from_bytes(payload: bytes, index=None) -> CandidateSet:
    if not payload:
        raise ValueError("empty candidate payload")
    tag = payload[0]
    if tag == _WIRE_TUPLE:
        (count,) = struct.unpack_from("<I", payload, 1)
        edges = struct.unpack_from(f"<{count}q", payload, 5)
        return TupleCandidates(tuple(edges)) if count else EMPTY_CANDIDATES
    backend = getattr(index, "backend", None)
    if tag == _WIRE_MASK:
        if index is None:
            raise ValueError("mask payloads require the owning index")
        (row_offset,) = struct.unpack_from("<I", payload, 1)
        limit = _row_space_limit(index)
        if row_offset > limit:
            raise ValueError(
                f"mask row offset {row_offset} exceeds the index's row "
                f"space ({limit} rows)"
            )
        mask = int.from_bytes(payload[5:], "little")
        if backend == "adaptive":
            # Re-chunk from explicit rows: O(survivors), regardless of
            # how far the offset pushes them up the row space.
            rows = [row_offset + row for row in bits_to_array(mask)]
            return ChunkCandidates(
                index,
                chunks_from_rows(rows, index.chunk_bits, index.array_max),
            )
        return MaskCandidates(index, mask << row_offset)
    if tag == _WIRE_CHUNKS:
        if index is None:
            raise ValueError("chunk payloads require the owning index")
        (count,) = struct.unpack_from("<I", payload, 1)
        offset = 5
        chunks = {}
        limit = _row_space_limit(index)
        wire_chunk_bits = getattr(index, "chunk_bits", CHUNK_BITS)
        for _ in range(count):
            chunk, kind = struct.unpack_from("<IB", payload, offset)
            offset += 5
            if (chunk << wire_chunk_bits) > limit:
                raise ValueError(
                    f"chunk {chunk} lies outside the index's row space "
                    f"({limit} rows)"
                )
            if kind == _BITS_KIND:
                (length,) = struct.unpack_from("<I", payload, offset)
                offset += 4
                chunks[chunk] = int.from_bytes(
                    payload[offset : offset + length], "little"
                )
                offset += length
            else:
                (cardinality,) = struct.unpack_from("<H", payload, offset)
                offset += 2
                chunks[chunk] = tuple(
                    struct.unpack_from(f"<{cardinality}I", payload, offset)
                )
                offset += 4 * cardinality
        if backend == "bitset":
            # Bitset indices have no chunk notion; flatten at the
            # default wire width.
            chunk_bits = getattr(index, "chunk_bits", CHUNK_BITS)
            return MaskCandidates(index, mask_from_chunks(chunks, chunk_bits))
        return ChunkCandidates(index, chunks)
    raise ValueError(f"unknown candidate payload tag {tag:#x}")


def compose_candidate_sets(sets: Sequence[CandidateSet]) -> CandidateSet:
    """Union of candidate sets over one row space (the shard seam).

    The engine-side half of process sharding: each shard contributes the
    survivors of its disjoint row range (decoded into the *global* index
    via :func:`candidate_set_from_bytes`) and the union runs on the
    native representations — big-int ``|`` for masks, container-pairwise
    ``|`` for chunk maps, a k-way merge for tuples.  Nothing decodes to
    edge ids unless representations are mixed (which uniform-backend
    stores never produce).
    """
    populated = [s for s in sets if len(s)]
    if not populated:
        return EMPTY_CANDIDATES
    if len(populated) == 1:
        return populated[0]
    first = populated[0]
    if all(type(s) is MaskCandidates for s in populated):
        mask = 0
        for s in populated:
            mask |= s.mask
        return MaskCandidates(first.index, mask)
    if all(type(s) is ChunkCandidates for s in populated):
        chunks = chunks_union_many(
            [s.chunks for s in populated], first.index.array_max
        )
        return ChunkCandidates(first.index, chunks)
    # Tuples — and the mixed-representation fallback — go through the
    # decoded k-way merge.
    return TupleCandidates(union_many([s.to_tuple() for s in populated]))


class CandidateAccumulator:
    """Incremental :func:`compose_candidate_sets`: fold shard survivor
    sets one at a time, in whatever order they arrive.

    The streaming coordinator
    (:func:`repro.parallel.level_sync.run_level_synchronous`) folds each
    shard's payload the moment its reply lands instead of buffering
    every reply behind the level barrier, so composition overlaps the
    stragglers' compute.  Because the union is commutative and
    associative — big-int ``|`` for masks, container-pairwise ``|`` for
    chunk maps, a sorted merge for tuples — :meth:`result` is
    bit-identical to ``compose_candidate_sets(sets)`` for every arrival
    order (pinned by the sharding property tests).

    Mask and chunk sets fold eagerly into one running mask / chunk map
    (shards' row ranges are disjoint, so the running set stays exactly
    as large as the final union); tuple and mixed-representation sets
    are collected and handed to :func:`compose_candidate_sets` at
    :meth:`result`, whose k-way merge wants all operands at once.

    Folding is **exactly-once** under duplicated streams: callers that
    may see the same shard's reply more than once (the socket
    coordinator under speculative re-dispatch — two copies of one
    range answering the same level) pass ``add(..., key=shard_id)``,
    and every key after the first is ignored.  The row-disjoint
    contract makes duplicates byte-identical, so dropping them is
    lossless; dedup-by-key makes it *provable* without comparing
    payloads.  Mask/chunk unions are idempotent anyway (``a | a ==
    a``), but tuple sets are concatenated before the k-way merge, so
    without the key a duplicated tuple reply would double its edges.
    """

    __slots__ = ("_mask_index", "_mask", "_chunk_index", "_chunks",
                 "_others", "_seen")

    def __init__(self) -> None:
        self._mask_index = None
        self._mask: "int | None" = None
        self._chunk_index = None
        self._chunks = None
        self._others: List[CandidateSet] = []
        self._seen: "set | None" = None

    def add(self, candidates: CandidateSet, key=None) -> None:
        """Fold one shard's survivor set into the running union.

        ``key`` (hashable) identifies the contribution's origin;
        contributions repeating an already-folded key are discarded —
        the exactly-once guard for duplicated reply streams.
        """
        if key is not None:
            if self._seen is None:
                self._seen = set()
            elif key in self._seen:
                return
            self._seen.add(key)
        if not len(candidates):
            return
        kind = type(candidates)
        if kind is MaskCandidates:
            if self._mask is None:
                self._mask_index = candidates.index
                self._mask = candidates.mask
            else:
                self._mask |= candidates.mask
        elif kind is ChunkCandidates:
            if self._chunks is None:
                self._chunk_index = candidates.index
                self._chunks = candidates.chunks
            else:
                self._chunks = chunks_union_many(
                    [self._chunks, candidates.chunks],
                    self._chunk_index.array_max,
                )
        else:
            self._others.append(candidates)

    def __bool__(self) -> bool:
        return (
            self._mask is not None
            or self._chunks is not None
            or bool(self._others)
        )

    def result(self) -> CandidateSet:
        """The union of everything added (``EMPTY_CANDIDATES`` if none)."""
        parts: List[CandidateSet] = []
        if self._mask is not None:
            parts.append(MaskCandidates(self._mask_index, self._mask))
        if self._chunks is not None:
            parts.append(ChunkCandidates(self._chunk_index, self._chunks))
        parts.extend(self._others)
        return compose_candidate_sets(parts)


# ----------------------------------------------------------------------
# Anchor-union memoisation
# ----------------------------------------------------------------------


class AnchorUnionMemo:
    """Engine-level LRU memo for per-anchor posting-union masks.

    Consecutive tasks in the LIFO stack, the BFS frontier and a worker's
    deque are siblings sharing all but the last matched edge, so they
    keep re-deriving identical per-anchor unions.  The memo keys one
    union by ``(partition signature, anchor coordinates, possible-image
    tuple)`` and stores the backend-native mask (bitmask or chunk map,
    both treated as immutable).  The cached union is a pure function of
    the partition and the image *set* alone; the anchor's
    ``(prev_step, query_vertex)`` ints only scope entries per query
    plan, and the images are keyed as the ordered tuple they were
    filtered in (iteration order of a data edge is fixed, so equal image
    sets from the same anchor produce equal tuples) — hashing a small
    int tuple is several times cheaper than building a fresh
    ``frozenset`` per probe, which is what makes the memo profitable at
    small partition sizes too.  Only the mask backends consult it: the
    merge path stays unmemoised so its faithful posting-scan cost model
    keeps charging the work the paper's Algorithm 4 performs.

    Thread-safe without a lock: every mutation is a single C-level
    ``OrderedDict`` call, atomic under the GIL, and the compound
    read-then-recency/insert-then-evict sequences tolerate interleaving
    (a concurrently evicted key surfaces as a caught ``KeyError``; the
    hit/miss tallies are statistics, not invariants).  Workers of the
    threaded executor share the engine and hence this memo — a lock
    here would tax every anchor of every worker to protect nothing
    correctness-critical.
    """

    __slots__ = ("maxsize", "min_rows", "hits", "misses", "_entries")

    #: Sentinel distinguishing "miss" from a memoised falsy mask.
    _MISS = object()

    def __init__(self, maxsize: int = 4096, min_rows: int = 1024) -> None:
        self.maxsize = maxsize
        #: Partitions below this row count bypass the memo entirely: the
        #: OR fold over a handful of machine words costs less than the
        #: key build + probe, so caching only taxes them.  The memo pays
        #: where masks span many words — exactly the very-large-partition
        #: regime it exists for.
        self.min_rows = min_rows
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[object, object]" = OrderedDict()

    def get(self, key):
        value = self._entries.get(key, self._MISS)
        if value is self._MISS:
            self.misses += 1
            return value
        try:
            self._entries.move_to_end(key)
        except KeyError:
            pass
        self.hits += 1
        return value

    def put(self, key, value) -> None:
        entries = self._entries
        entries[key] = value
        if len(entries) > self.maxsize:
            try:
                entries.popitem(last=False)
            except KeyError:
                pass

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


def _anchor_images(
    data: Hypergraph,
    prev_image,
    anchor,
    vmap: Dict[int, Set[int]],
    non_incident: Set[int],
) -> List[int]:
    """Vertices of ``prev_image`` that can serve as the anchor's image
    (Algorithm 4 lines 4-5).  Shared by all algebra backends so the
    filter can never drift between them."""
    return [
        vertex
        for vertex in prev_image
        if vertex not in non_incident
        and data.label(vertex) == anchor.label
        and len(vmap[vertex]) == anchor.required_degree
    ]


def generate_candidates(
    data: Hypergraph,
    partition: "HyperedgePartition | None",
    step_plan: StepPlan,
    matched_edges: Sequence[int],
    vmap: Dict[int, Set[int]],
    counters: "MatchCounters | None" = None,
) -> Tuple[int, ...]:
    """Run Algorithm 4 and decode to an ascending candidate tuple.

    Tuple-boundary wrapper around :func:`generate_candidate_set` for
    callers that want the classic representation regardless of backend
    (tests, benchmarks, baselines).  The engine's expand loop uses the
    mask-native function directly and never pays this decode.
    """
    return generate_candidate_set(
        data, partition, step_plan, matched_edges, vmap, counters
    ).to_tuple()


def generate_candidate_set(
    data: Hypergraph,
    partition: "HyperedgePartition | None",
    step_plan: StepPlan,
    matched_edges: Sequence[int],
    vmap: Dict[int, Set[int]],
    counters: "MatchCounters | None" = None,
    memo: "AnchorUnionMemo | None" = None,
) -> CandidateSet:
    """Run Algorithm 4: candidate data hyperedges for ``step_plan``.

    ``matched_edges`` holds the data edge ids for steps
    ``0 .. step_plan.step - 1``; ``vmap`` must be
    ``vertex_step_map(data, matched_edges)``.  Returns a
    :class:`CandidateSet` in the partition backend's native
    representation (possibly empty).  ``partition`` is the data
    partition with the step's signature, or None when no data hyperedge
    carries it.  ``memo`` optionally caches per-anchor union masks
    across calls (mask backends only).
    """
    if partition is None:
        return EMPTY_CANDIDATES
    backend = partition.index.backend
    if backend == "bitset" and step_plan.anchors:
        return MaskCandidates(
            partition.index,
            candidate_mask(
                data, partition, step_plan, matched_edges, vmap, counters, memo
            ),
        )
    non_incident = _non_incident(data, step_plan, matched_edges)
    if backend == "adaptive":
        return _generate_candidates_adaptive(
            data, partition, step_plan, matched_edges, vmap, non_incident,
            counters, memo,
        )

    # The merge path (and the bitset backend's anchorless first step).
    # Lines 3-6: one union-of-posting-lists per (adjacent edge, shared
    # vertex) anchor; the candidate must be incident to a possible image
    # of every anchor vertex.
    per_anchor_sets = []
    work = 0
    for anchor in step_plan.anchors:
        prev_image = data.edge(matched_edges[anchor.prev_step])
        possible_images = _anchor_images(
            data, prev_image, anchor, vmap, non_incident
        )
        if not possible_images:
            if counters is not None:
                counters.work_units += work + len(prev_image)
            return EMPTY_CANDIDATES
        postings = [partition.incident_edges(v) for v in possible_images]
        merged = union_many(postings)
        work += len(prev_image) + sum(len(p) for p in postings)
        per_anchor_sets.append(merged)

    # Line 7: intersect all anchor candidate sets.
    if per_anchor_sets:
        candidates = intersect_many(per_anchor_sets)
        work += sum(len(s) for s in per_anchor_sets)
    else:
        # First step of the order (no anchors): the whole partition.
        candidates = partition.edge_ids
        work += len(candidates)

    if counters is not None:
        counters.work_units += work
        counters.candidates += len(candidates)
    return TupleCandidates(candidates)


def _non_incident(
    data: Hypergraph, step_plan: StepPlan, matched_edges: Sequence[int]
) -> Set[int]:
    """Algorithm 4 line 1: the vertices that must NOT be incident to the
    new hyperedge (they belong to images of non-adjacent query
    hyperedges)."""
    non_incident: Set[int] = set()
    for prev in step_plan.nonadjacent_prev:
        non_incident.update(data.edge(matched_edges[prev]))
    return non_incident


def candidate_mask(
    data: Hypergraph,
    partition: HyperedgePartition,
    step_plan: StepPlan,
    matched_edges: Sequence[int],
    vmap: Dict[int, Set[int]],
    counters: "MatchCounters | None" = None,
    memo: "AnchorUnionMemo | None" = None,
) -> int:
    """Algorithm 4 over row-id bitmasks (same result set as the merge
    path), as the raw row mask of a bitset ``partition`` — every live
    row at the first step of the order, which has no anchors.

    Each anchor's union of posting lists is an OR of per-vertex masks and
    the final intersection is a running AND, so the set algebra costs a
    handful of big-int ops per anchor.  Work units charge the vertices
    scanned plus one unit per mask touched (one unit total on a memo
    hit) plus the result cardinality — the ops the backend actually
    performs — so the simulated executor's cost model tracks the cheaper
    algebra.
    """
    index = partition.index
    non_incident = _non_incident(data, step_plan, matched_edges)
    if memo is not None and len(partition.edge_ids) < memo.min_rows:
        memo = None
    result_mask = -1  # every row, until an anchor narrows it
    if not step_plan.anchors:  # the first step of the order
        result_mask = 0
        for row, edge_id in enumerate(partition.row_ids):
            if data.slot_vertices(edge_id) is not None:  # a live row
                result_mask |= 1 << row
    work = 0
    for anchor in step_plan.anchors:
        prev_image = data.edge(matched_edges[anchor.prev_step])
        work += len(prev_image)
        possible_images = _anchor_images(
            data, prev_image, anchor, vmap, non_incident
        )
        if not possible_images:
            if counters is not None:
                counters.work_units += work
            return 0
        anchor_mask = None
        key = None
        if memo is not None:
            key = (
                partition.signature,
                anchor.prev_step,
                anchor.query_vertex,
                tuple(possible_images),
            )
            cached = memo.get(key)
            if cached is not AnchorUnionMemo._MISS:
                anchor_mask = cached
                work += 1
        if anchor_mask is None:
            anchor_mask = 0
            for vertex in possible_images:
                anchor_mask |= index.postings_mask(vertex)
            work += len(possible_images)
            if memo is not None:
                memo.put(key, anchor_mask)
        result_mask &= anchor_mask
        if result_mask == 0:
            break

    if counters is not None:
        size = result_mask.bit_count()
        counters.work_units += work + size
        counters.candidates += size
    return result_mask


def _generate_candidates_adaptive(
    data: Hypergraph,
    partition: HyperedgePartition,
    step_plan: StepPlan,
    matched_edges: Sequence[int],
    vmap: Dict[int, Set[int]],
    non_incident: Set[int],
    counters: "MatchCounters | None",
    memo: "AnchorUnionMemo | None",
) -> CandidateSet:
    """Algorithm 4 over roaring-style chunk maps.

    Identical structure to the bitset path — per-anchor union, running
    intersection, same mask-ops cost model — but every ``|``/``&`` is
    container-pairwise over the chunks both operands populate, so dense
    chunks run at big-int speed while sparse chunks stay small sorted
    arrays.
    """
    index = partition.index
    if memo is not None and len(partition.edge_ids) < memo.min_rows:
        memo = None
    array_max = index.array_max
    flat = index.flat_containers
    result_chunks = None
    # Sentinel-based: a genuinely empty container is falsy (0 or ()).
    result_container = _NO_RESULT
    work = 0
    for anchor in step_plan.anchors:
        prev_image = data.edge(matched_edges[anchor.prev_step])
        work += len(prev_image)
        possible_images = _anchor_images(
            data, prev_image, anchor, vmap, non_incident
        )
        if not possible_images:
            if counters is not None:
                counters.work_units += work
            return EMPTY_CANDIDATES
        key = cached = None
        if memo is not None:
            key = (
                partition.signature,
                anchor.prev_step,
                anchor.query_vertex,
                tuple(possible_images),
            )
            cached = memo.get(key)
            if cached is AnchorUnionMemo._MISS:
                cached = None
            else:
                work += 1
        if flat is not None:
            # Single-chunk partition: fold bare containers inline — the
            # hot loop mirrors the bitset backend's OR fold, with sparse
            # array containers gathered on the side.
            if cached is not None:
                anchor_container = cached
            else:
                bits = 0
                arrays = None
                flat_get = flat.get
                for vertex in possible_images:
                    container = flat_get(vertex)
                    if container is None:
                        continue
                    if type(container) is int:
                        bits |= container
                    elif arrays is None:
                        arrays = [container]
                    else:
                        arrays.append(container)
                if arrays is None:
                    anchor_container = bits
                elif bits or len(arrays) > 1:
                    # Mixed / multi-array union, inlined from
                    # containers_union_many — the call itself costs the
                    # adaptive backend measurable margin at this
                    # frequency.  Must stay behaviourally identical to
                    # that helper; TestAdaptiveContainers::
                    # test_flat_fold_equivalent_at_container_extremes
                    # pins the equivalence.
                    if bits or sum(map(len, arrays)) > array_max:
                        for array in arrays:
                            for offset in array:
                                bits |= 1 << offset
                        anchor_container = bits
                    else:
                        anchor_container = tuple(
                            sorted({o for array in arrays for o in array})
                        )
                else:
                    anchor_container = arrays[0]
                work += len(possible_images)
                if memo is not None:
                    memo.put(key, anchor_container)
            if result_container is _NO_RESULT:
                result_container = anchor_container
            elif type(result_container) is int and type(
                anchor_container
            ) is int:
                result_container &= anchor_container
            else:
                result_container = container_intersect(
                    result_container, anchor_container
                )
            if not result_container:
                break
        else:
            if cached is not None:
                anchor_chunks = cached
            else:
                anchor_chunks = chunks_union_many(
                    [index.postings_chunks(v) for v in possible_images],
                    array_max,
                )
                work += len(possible_images)
                if memo is not None:
                    memo.put(key, anchor_chunks)
            result_chunks = (
                anchor_chunks
                if result_chunks is None
                else chunks_intersect(result_chunks, anchor_chunks)
            )
            if not result_chunks:
                break

    if result_container is not _NO_RESULT:
        # Single-chunk results share the bitset consumers: a bitmask
        # container IS a row mask (chunk 0), and an array container is
        # at most array_max entries — decoding it eagerly costs less
        # than any lazy wrapper.
        if type(result_container) is int:
            candidates: CandidateSet = MaskCandidates(index, result_container)
        else:
            row_to_edge = index.row_to_edge
            candidates = TupleCandidates(
                tuple(row_to_edge[offset] for offset in result_container)
            )
    elif result_chunks is not None:
        candidates = ChunkCandidates(index, result_chunks)
    else:
        # First step of the order (no anchors): the whole partition.
        candidates = TupleCandidates(partition.edge_ids)

    if counters is not None:
        size = len(candidates)
        counters.work_units += work + size
        counters.candidates += size
    return candidates
