"""Row-range shards of the partitioned store.

Splitting every signature partition's rows ``0 .. n-1`` into
``num_shards`` contiguous ranges yields ``num_shards`` independent
sub-stores — each holding backend-native posting structures over its
**local** row space — whose shard-local candidate sets concatenate
(disjoint union) to exactly the global candidate set:

    ``Alg4(partition) ∩ rows_i == Alg4(partition[rows_i])``

because every union and intersection in Algorithm 4 commutes with
restriction to a row range.  :func:`repro.parallel.level_sync.
expand_level` expands a frontier against one :class:`StoreShard` and
ships the survivors as compact payloads in *global* row coordinates,
which :func:`repro.parallel.level_sync.run_level_synchronous` composes.
No pool runs that protocol any more (a pool member holds the whole
graph, see :mod:`repro.parallel.pool`); the shard and its kernel stay
as what the frozen layer trace of ``benchmarks/e2e`` measures.
"""

from __future__ import annotations

from typing import Mapping, Sequence, Tuple

from .hypergraph import Hypergraph
from .signature import Signature
from .storage import PartitionedStore


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
    build loop and maintained by the same ownership rule — plus which
    shard of how many it is.  Edge ids stay global, so shard-local
    candidate sets decode to globally valid edge ids; only *row*
    coordinates need the :meth:`row_base` offset, which
    :meth:`~repro.core.candidates.CandidateSet.to_bytes` applies when a
    payload leaves the shard.
    """

    def __init__(
        self,
        graph: Hypergraph,
        shard_id: int,
        num_shards: int,
        index_backend: "str | None",
        ranges: "Mapping[Signature, Tuple[int, int]]",
        grouped: "Mapping[Signature, Sequence[int]] | None" = None,
    ) -> None:
        _check_shard_id(shard_id, num_shards)
        super().__init__(graph, index_backend, ranges, grouped)
        self.shard_id = shard_id
        self.num_shards = num_shards

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
        graph (no global store required): near-equal row counts of
        every partition, :func:`shard_ranges`.  ``sharding`` names that
        placement, ``"uniform"`` — the only one."""
        _check_shard_id(shard_id, num_shards)
        if sharding not in (None, "uniform"):
            raise ValueError(
                f"unknown sharding mode {sharding!r}; expected 'uniform'"
            )
        grouped = graph.rows_by_signature()
        return cls(
            graph, shard_id, num_shards, index_backend,
            {
                signature: shard_ranges(len(edge_ids), num_shards)[shard_id]
                for signature, edge_ids in grouped.items()
            },
            grouped=grouped,
        )

    def __repr__(self) -> str:
        return (
            f"StoreShard({self.shard_id}/{self.num_shards}, "
            f"partitions={len(self._partitions)}, "
            f"backend={self.index_backend})"
        )
