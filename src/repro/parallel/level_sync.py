"""The level-synchronous shard protocol, transport-agnostic.

Both halves of the protocol live here:

* the **worker-side kernel** — :func:`expand_level` expands a frontier
  against one :class:`~repro.hypergraph.sharding.StoreShard` and
  :func:`encode_survivors` serialises the accepted candidates in the
  backend's native wire representation;
* the **coordinator loop** — :func:`run_level_synchronous` broadcasts
  the job, then for each plan step broadcasts the frontier, gathers
  one reply per shard and composes the surviving candidate sets with
  :func:`repro.core.candidates.compose_candidate_sets`.

No pool runs this protocol: a pool member holds the whole graph and
answers subtree requests (:mod:`repro.parallel.pool`).  The loop, the
kernel and :class:`~repro.hypergraph.sharding.StoreShard` stay as the
surface the frozen layer trace of ``benchmarks/e2e`` drives with shards
held in one process, and as the oracle of the row-range distributivity
the tests pin.

An executor plugs in by providing:

``num_shards``
    How many shard replies to expect per gather.
``_ensure_pool(engine)``
    Make the shard peers ready for ``engine`` (spawn processes /
    connect sockets, verify the backend matches).
``_broadcast(message)``
    Deliver one protocol tuple — ``("job", query, order)``,
    ``("level", step, frontier)`` or ``("collect",)`` — to every shard.
``_gather()``
    Collect one reply per shard, **in shard order**: level replies as
    ``("level", payloads, embeddings)`` (with ``(counters, stats)``
    appended on the final level) and collect replies as
    ``(counters, stats)``.  ``payloads`` holds one raw
    :meth:`~repro.core.candidates.CandidateSet.to_bytes` payload (or
    None) per frontier partial — any transport-level version byte is
    already stripped and validated by the transport's gather.
``_gather_iter()`` (optional)
    As-completed variant of ``_gather`` for level replies: yields
    ``(shard_id, reply)`` pairs the moment each shard answers, in
    arrival order.  When present, the coordinator streams composition
    through it (shard union is commutative, so counts cannot depend on
    arrival order); without it the barrier ``_gather`` is used.

Failure policy is the executor's: this loop only ever sees complete
replies, or the executor's typed error.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from typing import List, Optional, Sequence, Tuple

from ..core.candidates import (
    AnchorUnionMemo,
    CandidateAccumulator,
    VertexStepState,
    candidate_set_from_bytes,
    encode_chunks_payload,
    encode_mask_payload,
    encode_tuple_payload,
)
from ..core.counters import MatchCounters
from ..core.frontier import expand_block, frontier_blocks
from ..errors import QueryCancelled, TimeoutExceeded
from ..hypergraph import Hypergraph, PartitionedStore
from ..hypergraph.index import chunks_from_rows
from .tasks import ROOT_TASK, ParallelResult, PartialEmbedding, WorkerStats


# ----------------------------------------------------------------------
# Worker-side kernel (runs in a shard's process, local or remote)
# ----------------------------------------------------------------------


def encode_survivors(
    backend: str,
    rows: List[int],
    edges: List[int],
    row_base: int,
    index,
) -> "bytes | None":
    """Serialise one partial's accepted candidates in the backend's
    native wire representation, shifted into global row coordinates."""
    if backend == "bitset":
        if not rows:
            return None
        mask = 0
        for row in rows:
            mask |= 1 << row
        # Local mask + decode offset: payload bytes track the shard's
        # survivor span, not its global row base.
        return encode_mask_payload(mask, row_base)
    if backend == "adaptive":
        if not rows:
            return None
        chunks = chunks_from_rows(
            [row + row_base for row in rows], index.chunk_bits, index.array_max
        )
        # Sparse survivor sets often encode smaller as a bare mask (the
        # chunk framing costs 9 bytes per dense chunk / 7 + 4·n per
        # array); both sizes are closed-form, so pick the winner before
        # serialising anything.  The reader re-chunks either form.
        chunk_size = 5
        for container in chunks.values():
            if isinstance(container, int):
                chunk_size += 9 + (container.bit_length() + 7) // 8
            else:
                chunk_size += 7 + 4 * len(container)
        mask_size = 5 + (rows[-1] + 8) // 8  # rows ascending; span bytes
        if mask_size < chunk_size:
            mask = 0
            for row in rows:
                mask |= 1 << row
            return encode_mask_payload(mask, row_base)
        return encode_chunks_payload(chunks)
    if not edges:
        return None
    return encode_tuple_payload(edges)


def expand_level(
    graph: Hypergraph,
    shard: PartitionedStore,
    plan,
    step: int,
    frontier: Sequence[PartialEmbedding],
    state: VertexStepState,
    counters: MatchCounters,
    stats: WorkerStats,
    memo: AnchorUnionMemo,
    mask_validation: bool = False,
) -> Tuple[str, "List[Optional[bytes]] | None", int]:
    """Expand every frontier partial against the shard's rows (any
    store will do: a whole one is the 1-of-1 shard, row base 0).

    Returns ``("level", payloads, embeddings)``: one payload (or None)
    per partial on intermediate steps, survivor *counts* on the final
    step (complete embeddings are consumed on the spot, like the other
    executors' implicit TSINK handling).  ``mask_validation`` is accepted
    and ignored: every backend validates over ``state.step_masks``.

    The level is cut into blocks that each go through the engine's own
    block step (:func:`~repro.core.frontier.expand_block`, which picks
    the orientation); what stays here is the worker's: the shard's row
    base, the payload encoding and the :class:`WorkerStats`.  Payload
    bytes, embeddings and funnel counters do not depend on the
    orientation; ``work_units`` charges the mask operations of the one
    that ran.
    """
    step_plan = plan.steps[step]
    final = step == plan.num_steps - 1
    partition = shard.partition(step_plan.signature)
    if partition is None:
        # The shard owns no rows of this signature; nothing to report.
        return ("level", None, 0)
    started = time.perf_counter()
    started_cpu = time.thread_time()
    backend = shard.index_backend
    index = partition.index
    row_base = shard.row_base(step_plan.signature)
    # Row coordinates are positions in the partition's *row layout*
    # (all slots, tombstones included) — under mutation this diverges
    # from the live edge-id table, so edge ids bisect row_ids.
    row_ids = partition.row_ids
    payloads: "List[Optional[bytes]] | None" = None if final else []
    embeddings = 0
    # The wire's tuples, as the block step's columns: once per level.
    cols = list(zip(*frontier))
    for block_cols, size in frontier_blocks(cols, len(frontier)):
        accepted_pairs, sets = expand_block(
            graph, partition, plan, step, block_cols, size, state, counters,
            memo, not final,
        )
        stats.tasks_executed += size
        if final:
            embeddings += accepted_pairs
            continue
        if backend == "bitset":
            # Validated as masks over this partition's own rows: each
            # mask is its payload (local rows + decode offset).
            payloads += [
                encode_mask_payload(mask, row_base) if mask else None
                for mask in sets
            ]
            continue
        for accepted in sets:
            edges = accepted.to_tuple()
            # Only the mask backends ship rows; merge ships the edge ids.
            rows = [bisect_left(row_ids, e) for e in edges if backend != "merge"]
            payloads.append(
                encode_survivors(backend, rows, edges, row_base, index)
            )
    if final:
        stats.embeddings += embeddings
    else:
        stats.payload_bytes += sum(len(p) for p in payloads if p is not None)
    stats.busy_time += time.perf_counter() - started
    stats.cpu_time += time.thread_time() - started_cpu
    return ("level", payloads, embeddings)


# ----------------------------------------------------------------------
# Coordinator loop
# ----------------------------------------------------------------------


def _iter_replies(executor):
    """Level replies as ``(shard_id, reply)`` pairs.

    Streaming executors expose ``_gather_iter`` — an as-completed
    iterator that yields each shard's reply the moment it lands — so
    the coordinator folds survivors while stragglers still compute.
    Executors without it fall back to the ordered barrier gather.
    """
    if hasattr(executor, "_gather_iter"):
        return executor._gather_iter()
    return enumerate(executor._gather())


def run_level_synchronous(
    executor,
    engine,
    query,
    order=None,
    time_budget: "float | None" = None,
    cancelled=None,
) -> ParallelResult:
    """Execute one matching job over ``executor``'s shard peers.

    Counts are bit-identical to the sequential engine: shards partition
    every partition's rows disjointly, each candidate is generated and
    validated in exactly one shard, and the composed per-level
    frontiers equal the sequential BFS frontiers as sets.  Composition
    itself is *streaming*: per-shard survivor payloads are folded
    through an incremental
    :class:`~repro.core.candidates.CandidateAccumulator` as replies
    arrive, so the coordinator's decode + union work overlaps the
    slowest shard's compute instead of waiting behind the full barrier
    — the union is commutative, so arrival order cannot change the
    composed frontier.  ``time_budget`` is enforced at level
    granularity (levels are the protocol's natural barriers), and so is
    ``cancelled`` — a zero-argument callable polled at the same
    barriers; when it reports True the loop raises
    :class:`~repro.errors.QueryCancelled` instead of dispatching the
    next level (the match service's cancel path; the executor's own
    gather may additionally interrupt a level in flight).
    """
    plan = engine.plan(query, order)
    executor._ensure_pool(engine)
    deadline = None if time_budget is None else time.monotonic() + time_budget
    started = time.monotonic()
    executor._broadcast(("job", query, plan.order))
    num_steps = plan.num_steps
    frontier: List[PartialEmbedding] = [ROOT_TASK]
    embeddings = 0
    logical_tasks = 0
    peak_retained = 0
    collected = None
    for step in range(num_steps):
        if cancelled is not None and cancelled():
            raise QueryCancelled(
                f"query cancelled before level {step} dispatch"
            )
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutExceeded(
                time.monotonic() - (deadline - time_budget), time_budget
            )
        executor._broadcast(("level", step, frontier))
        logical_tasks += len(frontier)
        if step == num_steps - 1:
            # Final replies carry the job accounting (workers piggyback
            # it on the last level, saving a collect round trip).
            collected = [None] * executor.num_shards
            for shard_id, reply in _iter_replies(executor):
                embeddings += reply[2]
                collected[shard_id] = reply[3:5]
            break
        partition = engine.store.partition(plan.steps[step].signature)
        index = None if partition is None else partition.index
        accumulators: "List[Optional[CandidateAccumulator]]" = (
            [None] * len(frontier)
        )
        for _shard_id, reply in _iter_replies(executor):
            payloads = reply[1]
            if payloads is None:
                continue
            for position, payload in enumerate(payloads):
                if payload is None:
                    continue
                accumulator = accumulators[position]
                if accumulator is None:
                    accumulator = CandidateAccumulator()
                    accumulators[position] = accumulator
                # key= makes the fold exactly-once per shard: a
                # speculative duplicate reply (two replicas answering
                # the same level) is discarded, not re-unioned.
                accumulator.add(
                    candidate_set_from_bytes(payload, index),
                    key=_shard_id,
                )
        next_frontier: List[PartialEmbedding] = []
        for partial, accumulator in zip(frontier, accumulators):
            if accumulator is None:
                continue
            for edge in accumulator.result():
                next_frontier.append(partial + (edge,))
        frontier = next_frontier
        peak_retained = max(peak_retained, len(frontier))
        if not frontier:
            break
    elapsed = time.monotonic() - started

    if collected is None:
        # The frontier drained before the final level; the workers never
        # piggybacked their accounting, so ask for it.
        executor._broadcast(("collect",))
        collected = executor._gather()
    merged = MatchCounters()
    worker_stats: List[WorkerStats] = []
    for entry in collected:
        if entry is None:
            # A retired shard (elastically drained; its rows were recut
            # onto the survivors) never answers — the survivors' rows
            # cover its range, so skipping the slot loses nothing.
            continue
        counters, stats = entry
        merged.merge(counters)
        worker_stats.append(stats)
    # Logical task/embedding accounting lives coordinator-side: each
    # frontier entry is one task of the paper's tree (a shard's
    # per-partial probes are recorded in its WorkerStats instead).
    merged.tasks = logical_tasks
    merged.embeddings = embeddings
    merged.peak_retained = peak_retained
    return ParallelResult(
        embeddings=embeddings,
        elapsed=elapsed,
        counters=merged,
        worker_stats=worker_stats,
    )
