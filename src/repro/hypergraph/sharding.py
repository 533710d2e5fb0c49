"""Process-sharded storage: row-range shards of the partitioned store.

The mask-native :class:`~repro.core.candidates.CandidateSet` boundary
makes the partitioned store shardable along its row spaces: Algorithm 4
is pure set algebra over posting structures, and set algebra distributes
over a disjoint split of the rows.  Splitting every signature
partition's rows ``0 .. n-1`` into ``num_shards`` contiguous ranges
therefore yields ``num_shards`` *independent* sub-stores — each one
holding backend-native posting structures (merge tuples, row bitmasks
or roaring-style chunk maps) over its **local** row space — whose
shard-local candidate sets concatenate (disjoint union) to exactly the
global candidate set:

    ``Alg4(partition) ∩ rows_i == Alg4(partition[rows_i])``

because every union and intersection in Algorithm 4 commutes with
restriction to a row range.  A worker process owning one
:class:`StoreShard` can thus expand any partial embedding against its
own rows only, ship the surviving candidates as a compact mask payload
(:meth:`repro.core.candidates.CandidateSet.to_bytes` in *global* row
coordinates), and the engine composes the per-shard payloads with the
same container-pairwise ``|`` algebra — no decoded edge-id lists ever
cross a process boundary.

Memory per worker is bounded by its shard's postings (~``1/num_shards``
of the index), which is the production sharding story: the same wire
format and composition rules apply unchanged when shards live on
different hosts.

Shard *placement* — which contiguous range of each partition a shard
owns — is a pure policy choice on top of that contract.  Two build-time
modes exist (:data:`SHARDING_MODES`): ``"uniform"`` splits every
partition into near-equal row counts (the historical layout), and
``"balanced"`` cuts ranges by **posting mass** (rows weighted by their
arity, i.e. the posting entries they contribute) and steers each
partition's surplus toward the least-loaded shard, so hot or
indivisibly small partitions stop concentrating on shard 0.  On top of
either mode, :func:`rebalance_range_table` recuts an existing layout
from *observed* per-shard load (``WorkerStats`` busy/CPU time), keeping
each shard's position along every partition's row axis so only shards
whose boundaries actually moved need to rebuild.  All placements are
expressed as a :data:`RangeTable` and preserve the same row-disjoint
exact-cover invariant, so Algorithm 4 distributivity — and therefore
bit-identical counts — cannot depend on the policy.
"""

from __future__ import annotations

import struct
import zlib
from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Mapping, Sequence, Tuple

from .dynamic import MutationResult
from .hypergraph import Hypergraph
from .signature import Signature
from .storage import PartitionedStore

#: Build-time shard placement policies.  ``"uniform"`` cuts near-equal
#: row counts per partition; ``"balanced"`` cuts posting-mass-weighted
#: ranges and staggers partition surpluses across shards.  Rebalanced
#: layouts are not a mode — they are labelled ``rebalanced-<fp>`` and
#: always derive from a running pool (see :func:`rebalance_range_table`).
SHARDING_MODES = ("uniform", "balanced")

#: Fixed per-row cost, in posting-entry units, added to a row's arity
#: when the balanced cutter weighs it.  Scanning a candidate row costs
#: a constant (iterating the candidate, the validation call) *plus* a
#: per-posting-entry term (the profile comparison over the row's
#: vertices); weighing rows by arity alone over-allocates fine-grained
#: rows to a shard, because their constant costs don't shrink with
#: their arity.  16 entries ≈ the measured constant/per-entry ratio of
#: the pure-Python validation path (see ``benchmarks/bench_sharding``'s
#: skew section, which gates the resulting balance).
ROW_COST_ENTRIES = 16


def _row_weight(signature: Signature) -> int:
    """Load weight of one row of a partition: posting entries + the
    fixed per-row scan cost (see :data:`ROW_COST_ENTRIES`)."""
    return len(signature) + ROW_COST_ENTRIES


def resolve_sharding(sharding: "str | None") -> str:
    """Normalise a ``sharding`` argument, validating the mode name."""
    mode = "uniform" if sharding is None else sharding
    if mode not in SHARDING_MODES:
        raise ValueError(
            f"unknown sharding mode {mode!r}; expected one of "
            f"{SHARDING_MODES}"
        )
    return mode


@dataclass(frozen=True)
class ShardDescriptor:
    """Handoff summary of one shard: what a remote peer must agree on.

    This is the payload of the socket transport's handshake
    (:mod:`repro.parallel.transport`): a worker announces which slice of
    which store it owns, and the coordinator refuses to compose with a
    worker whose descriptor does not fit the executor's expectations —
    wrong backend (payloads would mis-decode), wrong shard arithmetic
    (rows would be double- or under-counted) or a different data graph
    (counts would be silently wrong).  All fields are plain ints/str so
    the descriptor crosses any serialisation boundary.
    """

    shard_id: int
    num_shards: int
    index_backend: str
    #: Signature partitions this shard owns at least one row of.
    num_partitions: int
    #: Shard-local row count summed over its partitions.
    num_rows: int
    #: Edge/vertex counts of the data graph the shard was built from —
    #: a cheap fingerprint that catches composing shards of different
    #: graphs (a full hash would re-read every edge for little gain).
    graph_edges: int
    graph_vertices: int
    #: Placement the shard's ranges were cut with: a build mode
    #: (``uniform``/``balanced``) or a coordinator-issued
    #: ``rebalanced-<fp>`` label.  Two workers cut under different
    #: placements own overlapping (or gapping) row ranges — composing
    #: them would double- or under-count, so the coordinator refuses.
    sharding: str = "uniform"
    #: Replica membership: this worker is replica ``replica_id`` of
    #: ``num_replicas`` serving the *same* row ranges.  Replicas of one
    #: shard are interchangeable by construction (they build identical
    #: shards from the same grouping), which is what makes mid-job
    #: failover and speculative re-dispatch sound: any replica's level
    #: reply for a range is bit-identical to any other's.  The identity
    #: only distinguishes workers; it never changes what rows they own.
    replica_id: int = 0
    num_replicas: int = 1
    #: Mutation version of the data graph the shard reflects: 0 for an
    #: immutable graph, ``DynamicHypergraph.version`` otherwise.  A
    #: worker that missed a MUTATE broadcast (it was restarting) holds
    #: an older version, and composing its rows with current ones would
    #: silently mis-count — the handshake refuses instead.
    graph_version: int = 0

    def as_dict(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "num_shards": self.num_shards,
            "index_backend": self.index_backend,
            "num_partitions": self.num_partitions,
            "num_rows": self.num_rows,
            "graph_edges": self.graph_edges,
            "graph_vertices": self.graph_vertices,
            "sharding": self.sharding,
            "replica_id": self.replica_id,
            "num_replicas": self.num_replicas,
            "graph_version": self.graph_version,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ShardDescriptor":
        descriptor = cls(**{key: payload[key] for key in (
            "shard_id", "num_shards", "index_backend", "num_partitions",
            "num_rows", "graph_edges", "graph_vertices", "sharding",
        )})
        # Replica fields default (0 of 1) when absent so descriptors
        # from pre-replication peers keep parsing — an un-replicated
        # worker *is* replica 0 of 1.  graph_version likewise defaults
        # to 0: a pre-mutation peer is at version 0 by definition.
        descriptor = descriptor.with_replica(
            int(payload.get("replica_id", 0)),
            int(payload.get("num_replicas", 1)),
        )
        return replace(
            descriptor,
            graph_version=int(payload.get("graph_version", 0)),
        )

    def with_replica(
        self, replica_id: int, num_replicas: int
    ) -> "ShardDescriptor":
        """The same shard served as replica ``replica_id`` of
        ``num_replicas`` — replica identity belongs to the *worker*
        serving a shard, not to the shard's data, so servers stamp it
        onto the built shard's descriptor at handshake time."""
        if num_replicas < 1:
            raise ValueError("num_replicas must be >= 1")
        if not 0 <= replica_id < num_replicas:
            raise ValueError(
                f"replica_id {replica_id} out of range for "
                f"{num_replicas} replicas"
            )
        return replace(
            self, replica_id=replica_id, num_replicas=num_replicas
        )


class ReplicaSet:
    """The live replica membership of one shard range.

    The row-disjoint contract makes every replica of a shard
    interchangeable: each one holds exactly the same contiguous row
    ranges (built from the same pure-function placement), so any live
    member can serve any request for the range.  This container tracks
    which of the ``num_replicas`` slots currently hold a live member —
    a coordinator keeps one per range and composes a job as long as
    *every* range has at least one live member; a range with **zero**
    live replicas is the only unrecoverable state.

    Members are arbitrary objects (the socket executor stores its
    connection records); presence *is* liveness — a failed member is
    removed, a recovered one re-placed.  Iteration and :meth:`members`
    are ordered by replica id so replica selection is deterministic.
    """

    __slots__ = ("shard_id", "num_replicas", "_members")

    def __init__(self, shard_id: int, num_replicas: int) -> None:
        if num_replicas < 1:
            raise ValueError("num_replicas must be >= 1")
        self.shard_id = shard_id
        self.num_replicas = num_replicas
        self._members: Dict[int, object] = {}

    def place(self, replica_id: int, member) -> None:
        """Register a live member in slot ``replica_id``; refuses a slot
        outside the replica arithmetic or one already held (two workers
        claiming the same identity is a deployment error, the replica
        twin of duplicate shard ids)."""
        if not 0 <= replica_id < self.num_replicas:
            raise ValueError(
                f"replica_id {replica_id} out of range for "
                f"{self.num_replicas} replicas of shard {self.shard_id}"
            )
        if replica_id in self._members:
            raise ValueError(
                f"replica {replica_id} of shard {self.shard_id} is "
                f"already placed"
            )
        self._members[replica_id] = member

    def grow(self, num_replicas: int) -> None:
        """Widen the replica arithmetic to ``num_replicas`` slots.

        An elastic pool admitting a newcomer whose announced
        ``num_replicas`` exceeds the current one grows every range's
        slot table (replica ids already placed keep their slots).
        Shrinking is refused: retiring a member is :meth:`remove`; the
        arithmetic itself never forgets ids, so a later readmit of the
        same identity stays well-defined.
        """
        if num_replicas < self.num_replicas:
            raise ValueError(
                f"cannot shrink shard {self.shard_id} from "
                f"{self.num_replicas} to {num_replicas} replica slots"
            )
        self.num_replicas = num_replicas

    def remove(self, replica_id: int) -> None:
        """Drop a member (it died or was severed); idempotent."""
        self._members.pop(replica_id, None)

    def get(self, replica_id: int):
        return self._members.get(replica_id)

    def members(self) -> "List[Tuple[int, object]]":
        """Live ``(replica_id, member)`` pairs, ascending replica id."""
        return sorted(self._members.items())

    def __iter__(self) -> Iterator:
        return iter(member for _, member in self.members())

    def __len__(self) -> int:
        return len(self._members)

    def __bool__(self) -> bool:
        return bool(self._members)

    def __repr__(self) -> str:
        return (
            f"ReplicaSet(shard={self.shard_id}, "
            f"live={sorted(self._members)}/{self.num_replicas})"
        )


def shard_ranges(num_rows: int, num_shards: int) -> Tuple[Tuple[int, int], ...]:
    """Split ``0 .. num_rows-1`` into ``num_shards`` contiguous ranges.

    Balanced to within one row (the first ``num_rows % num_shards``
    shards take the extra row); empty ranges are legal and show up for
    partitions smaller than the shard count.

    >>> shard_ranges(10, 4)
    ((0, 3), (3, 6), (6, 8), (8, 10))
    >>> shard_ranges(2, 4)
    ((0, 1), (1, 2), (2, 2), (2, 2))
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    base, extra = divmod(num_rows, num_shards)
    ranges = []
    low = 0
    for shard_id in range(num_shards):
        high = low + base + (1 if shard_id < extra else 0)
        ranges.append((low, high))
        low = high
    return tuple(ranges)


def weighted_shard_ranges(
    weights: Sequence[float],
    num_shards: int,
    capacities: "Sequence[float] | None" = None,
) -> Tuple[Tuple[int, int], ...]:
    """Cut ``len(weights)`` rows into ``num_shards`` contiguous ranges of
    near-equal total *weight* (optionally scaled per range).

    ``weights[r]`` is row ``r``'s load contribution (posting mass for
    build-time balancing, cost-rate-scaled mass for rebalancing) and
    must be non-negative.  ``capacities`` — one non-negative value per
    range, in positional order — makes the cut proportional instead of
    equal: range ``k`` targets ``total * capacities[k] / sum(capacities)``
    of the weight (a zero capacity yields an empty range whenever
    rounding allows).  Like :func:`shard_ranges` the result is always a
    disjoint exact cover of ``0 .. len(weights)-1`` with empty ranges
    legal; all-zero weights (or capacities) fall back to the uniform
    row-count cut.

    >>> weighted_shard_ranges((1, 1, 1, 1, 4), 2)
    ((0, 4), (4, 5))
    >>> weighted_shard_ranges((1, 1, 1, 1), 2, capacities=(3, 1))
    ((0, 3), (3, 4))
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    num_rows = len(weights)
    if any(weight < 0 for weight in weights):
        raise ValueError("row weights must be non-negative")
    if capacities is None:
        capacities = (1.0,) * num_shards
    elif len(capacities) != num_shards:
        raise ValueError(
            f"{len(capacities)} capacities for {num_shards} shards"
        )
    elif any(capacity < 0 for capacity in capacities):
        raise ValueError("shard capacities must be non-negative")
    prefix = [0.0]
    for weight in weights:
        prefix.append(prefix[-1] + weight)
    total = prefix[-1]
    capacity_total = sum(capacities)
    if total <= 0 or capacity_total <= 0:
        return shard_ranges(num_rows, num_shards)
    ranges = []
    low = 0
    capacity_seen = 0.0
    for shard_id in range(num_shards - 1):
        capacity_seen += capacities[shard_id]
        target = total * capacity_seen / capacity_total
        # Round the boundary to whichever adjacent prefix is closer to
        # the target (ties round down), never moving left of the
        # previous cut — monotone boundaries keep the cover exact.
        high = bisect_left(prefix, target, lo=low)
        if high > low and (
            high > num_rows
            or prefix[high] - target >= target - prefix[high - 1]
        ):
            high -= 1
        high = min(high, num_rows)
        ranges.append((low, high))
        low = high
    ranges.append((low, num_rows))
    return tuple(ranges)


#: One placement: per signature, the ``(low, high)`` row range each
#: shard owns of that partition, indexed by shard id.  Invariant
#: (pinned by the sharding test suite): for every signature the ranges
#: are a disjoint exact cover of ``0 .. num_rows - 1``.
RangeTable = Dict[Signature, Tuple[Tuple[int, int], ...]]


def uniform_range_table(
    grouped: "Mapping[Signature, Sequence[int]]", num_shards: int
) -> RangeTable:
    """The historical layout: near-equal row counts per partition."""
    return {
        signature: shard_ranges(len(edge_ids), num_shards)
        for signature, edge_ids in grouped.items()
    }


def balanced_range_table(
    grouped: "Mapping[Signature, Sequence[int]]", num_shards: int
) -> RangeTable:
    """Posting-mass-balanced layout, deterministic from the grouping.

    Every row of a partition weighs its arity in posting entries
    (``len(signature)`` — the per-partition index statistic) plus the
    fixed per-row scan cost (:data:`ROW_COST_ENTRIES`), so a
    partition's mass is ``(arity + row_cost) * rows``.  Partitions are
    placed in
    descending *lumpiness* order (arity, then mass): coarse-grained
    partitions — whose rows are large indivisible units, the ones a
    uniform row split cannot help — are cut first with equal-mass
    targets, then each finer partition is cut with targets proportional
    to the shards' current mass *deficits*, smoothing out whatever the
    lumpy partitions left uneven.  The function is a pure function of
    ``(grouped, num_shards)``: workers building their own shard and a
    coordinator validating the layout always agree without shipping the
    table.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    loads = [0.0] * num_shards
    total_mass = 0.0
    table: RangeTable = {}
    order = sorted(
        grouped.items(),
        key=lambda item: (
            -len(item[0]),
            -len(item[0]) * len(item[1]),
            item[1][0],
        ),
    )
    for signature, edge_ids in order:
        weight = _row_weight(signature)
        mass = weight * len(edge_ids)
        target = (total_mass + mass) / num_shards
        deficits = [max(target - load, 0.0) for load in loads]
        if sum(deficits) <= 0:
            deficits = [1.0] * num_shards
        ranges = weighted_shard_ranges(
            (weight,) * len(edge_ids), num_shards, capacities=deficits
        )
        table[signature] = ranges
        for shard_id, (low, high) in enumerate(ranges):
            loads[shard_id] += weight * (high - low)
        total_mass += mass
    return table


def build_range_table(
    grouped: "Mapping[Signature, Sequence[int]]",
    num_shards: int,
    sharding: "str | None" = None,
) -> RangeTable:
    """The placement for a build-time mode (see :data:`SHARDING_MODES`)."""
    mode = resolve_sharding(sharding)
    if mode == "balanced":
        return balanced_range_table(grouped, num_shards)
    return uniform_range_table(grouped, num_shards)


def rebalance_range_table(
    grouped: "Mapping[Signature, Sequence[int]]",
    table: RangeTable,
    loads: Sequence[float],
) -> RangeTable:
    """Recut an existing layout from observed per-shard load.

    ``loads[i]`` is shard ``i``'s measured cost over some window
    (``WorkerStats.cpu_time``/``busy_time``); a shard that ran hotter
    than the mean gets proportionally *less* posting mass in the new
    cut (its capacity is the reciprocal of its load factor, clamped to
    ``[0.25, 4.0]`` so one noisy sample cannot starve or flood a
    shard).  Each partition keeps its shards in their current
    *positional* order along the row axis — boundaries shift, positions
    never swap — so shards far from a moved boundary keep their exact
    ranges and need no rebuild.  The result covers every partition's
    rows exactly like the input did; only the split points move.
    """
    num_shards = len(loads)
    if num_shards == 0:
        raise ValueError("loads must name at least one shard")
    if any(load < 0 for load in loads):
        raise ValueError("shard loads must be non-negative")
    mean = sum(loads) / num_shards
    if mean <= 0:
        return dict(table)
    capacities = [
        1.0 / min(max(load / mean, 0.25), 4.0) for load in loads
    ]
    out: RangeTable = {}
    for signature, ranges in table.items():
        if len(ranges) != num_shards:
            raise ValueError(
                f"table has {len(ranges)} ranges for {num_shards} loads"
            )
        weight = _row_weight(signature)
        num_rows = len(grouped[signature])
        positional = sorted(
            range(num_shards),
            key=lambda shard_id: (ranges[shard_id], shard_id),
        )
        cuts = weighted_shard_ranges(
            (weight,) * num_rows,
            num_shards,
            capacities=[capacities[shard_id] for shard_id in positional],
        )
        recut = [None] * num_shards
        for position, shard_id in enumerate(positional):
            recut[shard_id] = cuts[position]
        out[signature] = tuple(recut)
    return out


def retire_shard_ranges(
    table: RangeTable, shard_id: int, survivors: "Sequence[int]"
) -> RangeTable:
    """Recut a table so ``shard_id`` holds no rows (an elastic shrink).

    Every partition's retired range is handed to its nearest surviving
    *positional* neighbour — the left one when it exists, else the
    right one — by extending that neighbour's boundary across the
    retired interval.  Boundaries only stretch, positions never swap
    (the same invariant as :func:`rebalance_range_table`), so shards
    away from the retired one keep their exact ranges and need no
    rebuild.  The retired shard's entries become empty ranges, which
    keeps the table's positional arithmetic intact for later recuts of
    the surviving shards.
    """
    if shard_id in survivors:
        raise ValueError(
            f"shard {shard_id} cannot survive its own retirement"
        )
    if not survivors:
        raise ValueError("cannot retire the only shard of a table")
    left = max((s for s in survivors if s < shard_id), default=None)
    right = min((s for s in survivors if s > shard_id), default=None)
    if left is None and right is None:
        raise ValueError(
            f"no surviving neighbour for retired shard {shard_id}"
        )
    recut: RangeTable = {}
    for signature, ranges in table.items():
        new_ranges = list(ranges)
        low, high = new_ranges[shard_id]
        if left is not None:
            new_ranges[left] = (new_ranges[left][0], high)
            new_ranges[shard_id] = (high, high)
        else:
            new_ranges[right] = (low, new_ranges[right][1])
            new_ranges[shard_id] = (low, low)
        recut[signature] = tuple(new_ranges)
    return recut


def mutate_range_table(
    table: RangeTable, result: MutationResult, num_shards: int
) -> RangeTable:
    """Row-span maintenance of a placement under one committed batch.

    The coordinator-side mirror of :meth:`~repro.hypergraph.storage.
    PartitionedStore.apply_mutation_result`: deletes tombstone in
    place (no boundary moves), and each insert extends the owning range
    — the non-empty range whose ``high`` equals the insert row — by one
    row, opening a new all-but-last-empty entry for an unseen
    signature.  Empty ranges parked exactly at the extended boundary
    shift past it, keeping them positionally *after* the owner so later
    load-based recuts (which sort ranges positionally) stay
    well-defined.  Returns a new table; the input is not modified.
    """
    out = {
        signature: list(ranges) for signature, ranges in table.items()
    }
    for mutation in result.inserted:
        ranges = out.get(mutation.signature)
        if ranges is None:
            if mutation.row != 0:
                raise ValueError(
                    f"insert at row {mutation.row} of a signature the "
                    f"table has never seen"
                )
            out[mutation.signature] = (
                [(0, 0)] * (num_shards - 1) + [(0, 1)]
            )
            continue
        owner = None
        for shard_id, (low, high) in enumerate(ranges):
            if low < high and high == mutation.row:
                owner = shard_id
        if owner is None:
            raise ValueError(
                f"no range of {ranges} ends at insert row {mutation.row}"
            )
        for shard_id, (low, high) in enumerate(ranges):
            if shard_id == owner:
                ranges[shard_id] = (low, high + 1)
            elif low == high == mutation.row:
                ranges[shard_id] = (high + 1, high + 1)
    return {
        signature: tuple(ranges) for signature, ranges in out.items()
    }


def range_table_slices(
    table: RangeTable, num_shards: int
) -> "List[Dict[Signature, Tuple[int, int]]]":
    """Per-shard view of a table: each shard's non-empty ranges only —
    what actually ships to a worker on a rebalance."""
    slices: "List[Dict[Signature, Tuple[int, int]]]" = [
        {} for _ in range(num_shards)
    ]
    for signature, ranges in table.items():
        for shard_id, (low, high) in enumerate(ranges):
            if low < high:
                slices[shard_id][signature] = (low, high)
    return slices


def plan_rebalance(
    grouped: "Mapping[Signature, Sequence[int]]",
    num_shards: int,
    current_table: RangeTable,
    loads: Sequence[float],
):
    """Coordinator-side recut planning, shared by both shard executors
    (the transports differ only in how the slices ship — keeping the
    computation here is what keeps them from drifting).

    Returns ``None`` when the recut changes no boundary, else
    ``(table, label, slices, moved)`` where ``slices`` is the
    per-shard view of the new table (every shard receives its slice —
    workers whose ranges are unchanged merely adopt the new label
    without rebuilding, so the whole pool always agrees on one
    placement label) and ``moved`` lists the shards whose ranges
    actually changed (the ones that rebuild).
    """
    table = rebalance_range_table(grouped, current_table, loads)
    if table == current_table:
        return None
    label = range_table_label(table, grouped)
    old_slices = range_table_slices(current_table, num_shards)
    slices = range_table_slices(table, num_shards)
    moved = [
        shard_id
        for shard_id in range(num_shards)
        if slices[shard_id] != old_slices[shard_id]
    ]
    return table, label, slices, moved


def range_table_label(
    table: RangeTable, grouped: "Mapping[Signature, Sequence[int]]"
) -> str:
    """Sharding label of a rebalanced layout: ``rebalanced-<crc32>``.

    The fingerprint hashes every partition's cut points keyed by the
    partition's first (global, deterministic) edge id, so two layouts
    agree on the label iff they agree on every boundary.  Workers never
    recompute it — the coordinator ships the label with the slices and
    workers echo it back in their descriptor, which is what lets the
    handshake refuse a worker still holding a stale layout.
    """
    crc = 0
    entries = sorted(
        (grouped[signature][0], ranges) for signature, ranges in table.items()
    )
    for first_edge, ranges in entries:
        crc = zlib.crc32(struct.pack("<q", first_edge), crc)
        for low, high in ranges:
            crc = zlib.crc32(struct.pack("<qq", low, high), crc)
    return f"rebalanced-{crc & 0xFFFFFFFF:08x}"


def _check_shard_id(shard_id: int, num_shards: int) -> None:
    if not 0 <= shard_id < num_shards:
        raise ValueError(
            f"shard_id {shard_id} out of range for {num_shards} shards"
        )


class StoreShard(PartitionedStore):
    """One shard: every signature partition restricted to a row range.

    A :class:`~repro.hypergraph.storage.PartitionedStore` built over
    explicit per-signature row ranges — its *slice* of the global
    partitions' row layouts, indexed with the same backend by the same
    build loop and maintained by the same ownership rule — plus the
    identity a pool needs to compose it with its peers: which shard of
    how many, cut under which placement.  Edge ids stay global, so
    shard-local candidate sets decode to globally valid edge ids; only
    *row* coordinates need the :meth:`row_base` offset, which
    :meth:`~repro.core.candidates.CandidateSet.to_bytes` applies when a
    payload leaves the shard.

    Built worker-side from the data hypergraph (see :meth:`build`);
    nothing in a shard needs the global store.  ``ranges`` is the
    shard's slice of a :data:`RangeTable` — the shape a coordinator
    ships on a rebalance, together with the table's label as
    ``sharding``.
    """

    def __init__(
        self,
        graph: Hypergraph,
        shard_id: int,
        num_shards: int,
        index_backend: "str | None",
        ranges: "Mapping[Signature, Tuple[int, int]]",
        sharding: str = "custom",
        grouped: "Mapping[Signature, Sequence[int]] | None" = None,
    ) -> None:
        _check_shard_id(shard_id, num_shards)
        super().__init__(graph, index_backend, ranges, grouped)
        self.shard_id = shard_id
        self.num_shards = num_shards
        self.sharding = sharding

    @classmethod
    def build(
        cls,
        graph: Hypergraph,
        shard_id: int,
        num_shards: int,
        index_backend: "str | None" = None,
        sharding: "str | None" = None,
    ) -> "StoreShard":
        """Build shard ``shard_id`` of ``num_shards`` directly from the
        graph — the worker-side entry point (no global store required).
        ``sharding`` selects the placement mode (:data:`SHARDING_MODES`);
        both modes are pure functions of the row layout, so
        independently built shards always fit together."""
        _check_shard_id(shard_id, num_shards)
        mode = resolve_sharding(sharding)
        grouped = graph.rows_by_signature()
        table = build_range_table(grouped, num_shards, mode)
        return cls(
            graph, shard_id, num_shards, index_backend,
            {signature: ranges[shard_id] for signature, ranges in table.items()},
            sharding=mode, grouped=grouped,
        )

    def ranges(self) -> Dict[Signature, Tuple[int, int]]:
        """The shard's non-empty row ranges — its slice of the range
        table, in the exact shape a REBALANCE message carries, so a
        worker can tell a relabel-only rebalance from a real rebuild.
        Spans count *rows* (tombstones included), never live edges:
        range arithmetic lives in the row layout."""
        return {
            signature: (base, base + self._partitions[signature].num_rows)
            for signature, base in self._row_bases.items()
        }

    def describe(self) -> ShardDescriptor:
        """The shard's handoff descriptor (the socket handshake body)."""
        graph = self._graph
        return ShardDescriptor(
            shard_id=self.shard_id,
            num_shards=self.num_shards,
            index_backend=self.index_backend,
            num_partitions=len(self._partitions),
            num_rows=sum(
                partition.num_rows
                for partition in self._partitions.values()
            ),
            graph_edges=graph.num_edges,
            graph_vertices=graph.num_vertices,
            sharding=self.sharding,
            graph_version=graph.version,
        )

    def __repr__(self) -> str:
        return (
            f"StoreShard({self.shard_id}/{self.num_shards}, "
            f"partitions={len(self._partitions)}, "
            f"backend={self.index_backend})"
        )
