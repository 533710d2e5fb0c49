"""The HGMatch engine: match-by-hyperedge enumeration (Algorithm 2).

:class:`HGMatch` owns an indexed data hypergraph (the offline stage of
Fig. 3) and answers queries by:

1. computing a matching order over the query hyperedges (Algorithm 3),
2. building an :class:`ExecutionPlan` with all query-side precomputation,
3. enumerating embeddings by expanding partial embeddings one hyperedge
   at a time — candidates from set operations (Algorithm 4), validation
   by vertex-profile comparison (Algorithm 5).

Enumeration never recurses and builds no runtime auxiliary structure: a
partial embedding is just its data hyperedge ids, and a block of them
one column of ids per matched step, so the same block step
(:func:`repro.core.frontier.expand_block`) backs the
sequential block-DFS here — whole, or one root part per thread or pool
worker — the BFS executor used for the memory experiment and the shard
workers of :mod:`repro.parallel`; the simulated task scheduler there
expands blocks of one through :meth:`HGMatch.expand`.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import QueryError, TimeoutExceeded
from ..hypergraph import Hypergraph, PartitionedStore
from ..hypergraph.io import check_label_types, label_types
from .candidates import (
    EMPTY_CANDIDATES,
    AnchorUnionMemo,
    CandidateSet,
    VertexStepState,
    vertex_step_map,
    vertex_step_masks,
)
from .counters import WORK_UNIT_MODELS, MatchCounters
from .expansion import count_vertex_mappings, iter_vertex_mappings
from .frontier import (
    block_limit,
    block_parents,
    decoder,
    expand_block,
    expand_parent,
    frontier_blocks,
)
from .ordering import compute_matching_order, is_connected_order
from .plan import ExecutionPlan, build_execution_plan
from .validation import certify_embedding

EmbeddingSink = Callable[["Embedding"], None]


class Embedding:
    """One subhypergraph-isomorphism embedding at hyperedge granularity.

    ``edge_ids[i]`` is the data hyperedge matched to the query hyperedge
    at step ``i`` of the plan's matching order.  Use
    :meth:`hyperedge_mapping` for a query-edge-id keyed view and
    :meth:`vertex_mappings` to expand into explicit vertex bindings.
    """

    __slots__ = ("_data", "_query", "_order", "edge_ids")

    def __init__(
        self,
        data: Hypergraph,
        query: Hypergraph,
        order: Tuple[int, ...],
        edge_ids: Tuple[int, ...],
    ) -> None:
        self._data = data
        self._query = query
        self._order = order
        self.edge_ids = edge_ids

    def hyperedge_mapping(self) -> Dict[int, int]:
        """Mapping ``{query edge id: data edge id}``."""
        return dict(zip(self._order, self.edge_ids))

    def canonical(self) -> Tuple[int, ...]:
        """Data edge ids reordered by query edge id — order-independent
        identity of the embedding, used to compare engines."""
        mapping = self.hyperedge_mapping()
        return tuple(mapping[edge_id] for edge_id in range(self._query.num_edges))

    def vertex_mappings(self) -> Iterator[Dict[int, int]]:
        """All injective vertex mappings realising this embedding."""
        return iter_vertex_mappings(self._data, self._query, self._order, self.edge_ids)

    def num_vertex_mappings(self) -> int:
        """Count of injective vertex mappings (product of class factorials)."""
        return count_vertex_mappings(
            self._data, self._query, self._order, self.edge_ids
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Embedding):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash(self.canonical())

    def __repr__(self) -> str:
        return f"Embedding({self.hyperedge_mapping()})"


def _child_blocks(
    cols: Sequence[Sequence[int]], n: int, edge_lists: Iterable[Sequence[int]],
    limit: int,
) -> Iterator[Tuple[List[List[int]], int]]:
    """The children of one expanded block of ``n`` parents (``cols``,
    see :mod:`repro.core.frontier`), decoded lazily in blocks
    ``(cols, size)`` of at most ``limit``: each parent's entries
    repeated once per child, its accepted edges as the new column.
    ``edge_lists`` yields every parent's accepted edges, ascending, last
    parent first.  Last parent and last edge first — with
    ``limit == 1`` exactly the order in which a LIFO stack of the
    children would pop them."""
    width = len(cols) + 1
    block: List[List[int]] = [[] for _ in range(width)]
    size = 0
    for at, edges in zip(range(n - 1, -1, -1), edge_lists):
        edges = edges[::-1]
        taken = 0
        while taken < len(edges):
            chunk = edges[taken:taken + limit - size]
            repeats = len(chunk)
            for column, source in zip(block, cols):
                column += [source[at]] * repeats
            block[-1] += chunk
            taken += repeats
            size += repeats
            if size == limit:
                yield block, size
                block = [[] for _ in range(width)]
                size = 0
    if size:
        yield block, size


#: Every ``executor=`` spelling of :meth:`HGMatch.count`.
_EXECUTORS = ("sequential", "threads", "processes", "simulated")


class HGMatch:
    """The subhypergraph matching engine over one data hypergraph.

    Parameters
    ----------
    data:
        The data hypergraph.  Indexing (signature partitioning plus the
        inverted hyperedge index) happens once here — the offline
        preprocessing stage of Fig. 3.
    store:
        Optionally a prebuilt :class:`PartitionedStore` to share between
        engines.  Shared means read: an engine's first mutation leaves
        it for a private store of its own.
    index_backend:
        Posting-list representation for a store built here — ``"merge"``
        (sorted tuples), ``"bitset"`` (row-id bitmasks) or ``"adaptive"``
        (roaring-style chunked containers); ``None`` defers to
        ``REPRO_INDEX_BACKEND``/``"bitset"``.  Ignored when a prebuilt
        ``store`` is supplied (the store's backend wins).
    shards:
        Default worker count of the shard pool (``count`` with
        ``executor="processes"``): one worker process
        per member (:class:`repro.parallel.ShardPool`), each holding the
        whole graph; ``count`` cuts a query at the root across them.
        ``1`` keeps everything in-process.
    """

    def __init__(
        self,
        data: Hypergraph,
        store: "PartitionedStore | None" = None,
        index_backend: "str | None" = None,
        shards: int = 1,
    ) -> None:
        if shards < 1:
            raise QueryError("shards must be >= 1")
        self.data = data
        self._owns_store = store is None
        self.store = (
            PartitionedStore(data, index_backend=index_backend)
            if store is None
            else store
        )
        self.shards = shards
        # Sibling tasks (of one search, or of the root parts on threads)
        # share anchors, so their per-anchor posting unions are memoised
        # engine-wide; the memo is thread-safe and only consulted by the
        # mask backends.
        self._anchor_memo = AnchorUnionMemo()
        # One pool of shard workers per engine (see pool()): built
        # lazily by the first "processes" run or installed by
        # the match service; workers keep their stores warm.
        self._pool = None
        # And one always-on match service (admission control, cache and
        # standing queries over that pool), built by match_service().
        self._match_service = None
        # The data graph's label types, re-read only when a query has a
        # type not in here: a graph only gains vertices, never loses a
        # label type (see plan()).
        self._label_types: frozenset = frozenset()

    @property
    def index_backend(self) -> str:
        """The posting-list representation of the engine's store."""
        return self.store.index_backend

    @property
    def uses_mask_validation(self) -> bool:
        """Whether the store is a mask backend.  Selects nothing any
        more — every backend validates over step bitmasks — and stays
        only because the frozen e2e trace reads it."""
        return self.index_backend in ("bitset", "adaptive")

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(
        self, query: Hypergraph, order: "Sequence[int] | None" = None
    ) -> ExecutionPlan:
        """Build the execution plan for ``query`` (online stage, Fig. 3).

        A custom connected matching ``order`` may be supplied; by default
        Algorithm 3 picks one from partition cardinalities.  A query
        whose vertex labels are of a type the data graph has none of
        (a native file's strings against int labels) could match nothing
        and is refused (:func:`~repro.hypergraph.io.check_label_types`).
        """
        if not label_types(query) <= self._label_types:
            self._label_types = label_types(self.data)
            check_label_types(query, self._label_types)
        if query.num_edges == 0:
            raise QueryError("query hypergraph has no hyperedges")
        if not query.is_connected():
            raise QueryError("HGMatch requires a connected query hypergraph")
        if order is None:
            order = compute_matching_order(query, self.store)
        elif not is_connected_order(query, order):
            raise QueryError(f"invalid matching order {order!r}")
        start_cardinality = self.store.cardinality(
            query.edge_signature(tuple(order)[0])
        )
        return build_execution_plan(
            query, order, start_cardinality, index_backend=self.index_backend
        )

    # ------------------------------------------------------------------
    # Single-step expansion (shared by every execution mode)
    # ------------------------------------------------------------------
    def expand(
        self,
        plan: ExecutionPlan,
        matched_edges: Tuple[int, ...],
        counters: "MatchCounters | None" = None,
    ) -> List[Tuple[int, ...]]:
        """Expand one partial embedding by the next hyperedge in the order.

        Returns the list of extended partial embeddings (possibly empty).
        ``matched_edges`` may be the empty tuple, in which case this is
        the SCAN step emitting the whole signature partition.
        """
        return [
            matched_edges + (edge,)
            for edge in self.accepted_set(plan, matched_edges, counters).to_tuple()
        ]

    def accepted_set(
        self,
        plan: ExecutionPlan,
        matched_edges: Tuple[int, ...],
        counters: "MatchCounters | None" = None,
    ) -> CandidateSet:
        """The data hyperedges that validly extend ``matched_edges`` by
        the next step: Algorithm 4's candidate set filtered by one
        Algorithm 5 kernel call, still in the backend's representation —
        ``len()`` counts the survivors without decoding them (a row
        mask's popcount), ``to_tuple()`` decodes once, ascending.  A
        block of one: :meth:`match`, :meth:`count` and :meth:`count_bfs`
        expand whole blocks (:func:`repro.core.frontier.expand_block`).

        The vertex → steps state is rebuilt from the task tuple, so a
        bare task is fully self-contained.
        """
        step_plan = plan.steps[len(matched_edges)]
        partition = self.store.partition(step_plan.signature)
        if partition is None:
            return EMPTY_CANDIDATES
        return expand_parent(
            self.data, partition, step_plan, matched_edges,
            vertex_step_map(self.data, matched_edges),
            vertex_step_masks(self.data, matched_edges),
            counters, self._anchor_memo,
            step_plan.step == plan.num_steps - 1,
        )

    # ------------------------------------------------------------------
    # Sequential execution
    # ------------------------------------------------------------------
    def _search(
        self,
        plan: ExecutionPlan,
        counters: "MatchCounters | None",
        time_budget: "float | None",
        first_edges=None,
        want_sets: bool = True,
        part: "Tuple[int, int] | None" = None,
    ) -> Iterator[Tuple[list, int, "Iterator[Tuple[int, ...]] | None", int]]:
        """The block-DFS behind :meth:`match` and :meth:`count`.

        A stack of frames, one per depth of the current path: a frame is
        an expanded block of same-depth parents — ``(cols, n)``, one
        column of data-edge ids per matched step, see
        :mod:`repro.core.frontier` — from whose accepted sets the next
        block of children is decoded lazily (:func:`_child_blocks`) and
        expanded in turn by :func:`~repro.core.frontier.expand_block`.
        Depth-first, so at most ``num_steps × FRONTIER_BLOCK`` partial
        embeddings are alive whatever the result count (Theorem VI.1
        with blocks for tasks); backends that never batch pull blocks of
        one — the paper's LIFO scheduler.

        Yields ``(cols, n, edge_lists, accepted)`` per last-level block
        with a survivor: the embeddings are each parent extended by each
        edge of its accepted set, ``edge_lists`` decoding those sets
        lazily, parent by parent — with ``want_sets=False`` not even kept
        (``edge_lists`` is None) — so counting pays nothing per
        embedding.  ``peak_retained`` counts the partials held: with
        blocks of one the accepted children not yet expanded (the LIFO
        deque), otherwise the parents of the live frames plus the block
        in hand — their children exist only as accepted sets.

        ``part = (p, n)`` searches below every ``n``-th step-0 survivor
        from the ``p``-th on (the accepted set is ascending, so the
        slices of ``p = 0..n-1`` partition it); ``first_edges`` keeps
        the survivors it names.  Every part repeats the step-0 scan,
        but only part 0 charges it — and the root task — to
        ``counters``, so the parts' counters add up to one search's.
        """
        deadline = None if time_budget is None else time.monotonic() + time_budget
        last_step = plan.num_steps - 1
        if counters is not None:
            counters.note_work_model(WORK_UNIT_MODELS.get(self.index_backend, ""))
        data = self.data
        partitions = [
            self.store.partition(step_plan.signature) for step_plan in plan.steps
        ]
        decoders = [None if p is None else decoder(p) for p in partitions]
        limit = block_limit(self.index_backend)
        lifo = limit == 1
        note = counters.note_retained if counters is not None else lambda _: None
        # One vertex_step_map for the whole search: consecutive parents
        # are siblings or children, a push/pop delta apart.
        state = VertexStepState(data)
        # (blocks of the frame's children, parents it holds until exhausted)
        frames: List[tuple] = [(iter((([], 1),)), 0)]
        while frames:
            block = next(frames[-1][0], None)
            if block is None:
                note(-frames.pop()[1])
                continue
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutExceeded(time.monotonic() - (deadline - time_budget), time_budget)
            cols, n = block
            step = len(cols)
            held = n if step else 0  # the root is no embedding
            note(-held if lifo else held)  # leaves the deque / is in hand
            sliced = not step and (first_edges is not None or part is not None)
            charged = None if sliced and part is not None and part[0] else counters
            if charged is not None:
                charged.tasks += n
            partition = partitions[step]
            accepted, sets = 0, None
            if partition is not None:
                accepted, sets = expand_block(
                    data, partition, plan, step, cols, n, state, charged,
                    self._anchor_memo, want_sets or sliced or step < last_step,
                )
            decode = decoders[step]
            if sliced and accepted:
                roots = decode(sets[0])
                if first_edges is not None:
                    roots = tuple(e for e in roots if e in first_edges)
                if part is not None:
                    roots = roots[part[0]::part[1]]
                # Decoded already: tuple() hands a tuple back as it is.
                sets, decode = [roots], tuple
                accepted = len(roots)
            if accepted and step < last_step:
                # LIFO: the children join the deque; blocks: the frame
                # keeps the parents in hand.
                frames.append((
                    _child_blocks(cols, n, map(decode, reversed(sets)), limit),
                    0 if lifo else held,
                ))
                note(accepted if lifo else 0)
                continue
            note(0 if lifo else -held)
            if accepted:
                yield cols, n, None if sets is None else map(decode, sets), accepted

    def match(
        self,
        query: Hypergraph,
        order: "Sequence[int] | None" = None,
        counters: "MatchCounters | None" = None,
        time_budget: "float | None" = None,
        strict: bool = False,
        first_edges=None,
    ) -> Iterator[Embedding]:
        """Lazily enumerate all embeddings of ``query`` (single-threaded).

        Runs the block-DFS of :meth:`_search` (the one-thread case of
        the task scheduler, Section VI-B, with blocks of siblings for
        tasks) so memory stays bounded regardless of the result count.

        ``strict=True`` additionally certifies every complete embedding
        with an explicit injective vertex-mapping search — a belt-and-
        braces mode the test suite uses to cross-check Theorem V.2.

        ``first_edges`` (a set of data edge ids) restricts the data edge
        bound at step 0 of the matching order.  Standing-query delta
        enumeration uses it to explore only the subtree rooted at newly
        inserted edges instead of re-enumerating from scratch.
        """
        plan = self.plan(query, order)
        for cols, n, edge_lists, _ in self._search(
            plan, counters, time_budget, first_edges
        ):
            for parent, edges in zip(block_parents(cols, n), edge_lists):
                for edge in edges:
                    extended = parent + (edge,)
                    if strict and not certify_embedding(
                        self.data, query, plan.order, extended
                    ):
                        raise AssertionError(
                            f"profile validation accepted an embedding that "
                            f"admits no vertex mapping: {extended}"
                        )
                    if counters is not None:
                        counters.embeddings += 1
                    yield Embedding(self.data, query, plan.order, extended)

    def _count_elsewhere(
        self, executor, query, order, workers, counters, time_budget, shards,
    ) -> "int | None":
        """:meth:`count` on another executor; None for
        ``"sequential"``/``"threads"``, which the caller runs."""
        if executor == "processes":
            if shards is None and self.shards == 1 and workers > 1:
                # ``workers`` expresses the desired parallelism for the
                # other executors; honour it here too unless the engine
                # or call named an explicit shard count.
                shards = workers
            return self.pool(shards).run(
                self, query, order=order, time_budget=time_budget,
                counters=counters,
            ).embeddings
        if executor == "simulated":
            from ..parallel.simulation import SimulatedExecutor  # lazy: avoid cycle

            result = SimulatedExecutor(num_workers=max(workers, 1)).run(
                self, query, order=order
            )
            if counters is not None:
                counters.merge(result.counters)
            return result.embeddings
        if executor in ("sequential", "threads"):
            return None
        raise QueryError(
            f"unknown executor {executor!r}; expected one of {_EXECUTORS}"
        )

    def count(
        self,
        query: Hypergraph,
        order: "Sequence[int] | None" = None,
        workers: int = 1,
        counters: "MatchCounters | None" = None,
        time_budget: "float | None" = None,
        executor: "str | None" = None,
        shards: "int | None" = None,
    ) -> int:
        """Count all embeddings of ``query``.

        ``executor`` selects where the block-DFS (:meth:`_search`) runs;
        every parallel spelling makes the same cut — worker ``p`` of
        ``n`` searches below the root candidates ``roots[p::n]``
        (:meth:`count_part`):

        * ``None`` — in-process, or ``"threads"`` when ``workers > 1``
          (the historical behaviour);
        * ``"threads"`` — the ``workers`` root parts on a thread pool of
          this process.  Under the GIL never faster than sequential:
          the no-process spelling of the cut and the baseline the shard
          pool is measured against;
        * ``"processes"`` — a solo *subtree job*
          (:meth:`repro.parallel.ShardPool.run`) on the engine's
          persistent shard pool (:meth:`pool`: worker processes here or
          on pinned hosts), for real multi-core
          wall clock.  Every worker holds the whole graph; each is sent
          one request, runs its root part and answers one count — the
          paper's Sec. VI task model, two frames per worker per query.
          Parallelism is ``shards``, falling back to the engine's
          ``shards``, falling back to ``workers`` — so ``count(q,
          workers=8, executor="processes")`` runs 8 worker processes
          rather than silently one;
        * ``"simulated"`` — the paper's work-stealing task scheduler as
          a discrete-event simulation
          (:class:`repro.parallel.SimulatedExecutor`, virtual time;
          ``time_budget`` does not apply).

        All executors return bit-identical counts.  The Fig. 9 funnel is
        filled when ``counters`` is passed — the same funnel on every
        executor, ``peak_retained`` the sum over the parts (one queue
        per worker, Theorem VI.1) — and not computed at all otherwise:
        neither the threads' parts nor the pool's members build one.
        """
        if executor is None:
            executor = "threads" if workers > 1 else "sequential"
        elsewhere = self._count_elsewhere(
            executor, query, order, workers, counters, time_budget, shards
        )
        if elsewhere is not None:
            return elsewhere
        if executor == "threads" and workers > 1:
            return self._count_on_threads(
                self.plan(query, order), workers, counters, time_budget
            )
        return self.count_part(
            query, order, counters=counters, time_budget=time_budget
        )

    def count_part(
        self,
        query: Hypergraph,
        order: "Sequence[int] | None" = None,
        part: int = 0,
        parts: int = 1,
        counters: "MatchCounters | None" = None,
        time_budget: "float | None" = None,
    ) -> int:
        """Count the embeddings below every ``parts``-th root candidate
        from the ``part``-th on: the in-process count (1 part) and the
        unit of work of every parallel executor, whose threads or pool
        members each run one part.  The parts' counts — and their
        ``counters``, see :meth:`_search` — add up to the whole query's.

        Count-only: last-level survivors are added up block by block,
        never decoded or built into tuples or Embedding objects.
        """
        return self._count_plan(
            self.plan(query, order), part, parts, counters, time_budget
        )

    def _count_plan(self, plan, part, parts, counters, time_budget) -> int:
        """:meth:`count_part` of an already built plan."""
        total = 0
        for _, _, _, accepted in self._search(
            plan, counters, time_budget, want_sets=False,
            part=None if parts == 1 else (part, parts),
        ):
            total += accepted
        if counters is not None:
            counters.embeddings += total
        return total

    def _count_on_threads(self, plan, parts, counters, time_budget) -> int:
        """The ``parts`` root parts of ``plan``, one per thread of a
        per-call pool.  The pool joins before anything is reported, so
        no thread outlives the call; the first failed part's exception
        (a timeout included) is the call's."""
        from concurrent.futures import ThreadPoolExecutor  # lazy: cheap

        # The step-0 partition's live rows bound the roots: parts past
        # them would be empty and charge nothing.
        parts = min(parts, max(1, plan.estimated_start_cardinality))
        # One funnel per part, and only for a caller who asked for one.
        tallies = [
            None if counters is None else MatchCounters()
            for _ in range(parts)
        ]
        with ThreadPoolExecutor(max_workers=parts) as threads:
            futures = [
                threads.submit(
                    self._count_plan, plan, part, parts, tally, time_budget
                )
                for part, tally in enumerate(tallies)
            ]
        total = sum(future.result() for future in futures)
        if counters is not None:
            for tally in tallies:
                counters.merge(tally)
            counters.peak_retained = max(
                counters.peak_retained,
                sum(tally.peak_retained for tally in tallies),
            )
        return total

    def pool(
        self,
        shards: "int | None" = None,
        hosts=None,
        registry=None,
    ):
        """The engine's one shard pool (lazily built): the
        :class:`~repro.parallel.pool.ShardPool` behind
        ``executor="processes"`` and the match service.

        By default it owns a loopback cluster of ``shards`` (default:
        the engine's ``shards``) workers, each holding a store of the
        whole graph, warm across queries (daemonic
        processes; :meth:`close` releases them early); asking for
        another layout rebuilds it.  ``hosts`` — ``(host, port)``
        addresses — (re)configures it for
        externally managed shard servers, a started ``registry``
        (:class:`~repro.parallel.registry.WorkerRegistry`) for
        *discovered* ones, whose evictions then feed the failover.  The
        layout arithmetic is the pool's own (``SchedulerError``).

        A pool pinned to real machines, or held by the match service,
        wins over shard-count defaults: it is returned when ``shards``
        is None or matches, and a conflicting request is refused rather
        than silently moving the work.
        """
        from ..parallel.pool import ShardPool  # lazy: avoid cycle

        if hosts is not None and registry is not None:
            raise QueryError(
                "hosts and registry are mutually exclusive: "
                "addresses are either pinned or discovered"
            )
        if registry is not None and shards is None:
            raise QueryError("registry discovery needs an explicit shard count")
        if hosts is not None:
            hosts = [tuple(address) for address in hosts]
        current = self._pool
        served = self._match_service is not None
        fixed = current is not None and (served or current.addresses is not None)
        if shards is None and hosts is None and not fixed:
            shards = self.shards
        if current is not None:
            wanted = {
                "addresses": hosts, "registry": registry, "num_shards": shards,
            }
            differs = [
                f"{name}={value!r}" for name, value in wanted.items()
                if value is not None and getattr(current, name) != value
            ]
            if not differs:
                return current
            if served or (fixed and hosts is None and registry is None):
                held = "held by its match service" if served else "at fixed addresses"
                raise QueryError(
                    f"engine is configured for {current.num_shards} socket workers "
                    f"{held}; cannot run {differs[0]}"
                )
        if registry is not None:
            fresh = ShardPool.from_registry(
                registry, shards, index_backend=self.index_backend
            )
        else:
            fresh = ShardPool(
                addresses=hosts, num_shards=shards,
                index_backend=self.index_backend,
            )
        if current is not None:
            current.close()
        self._pool = fresh
        return fresh

    def match_service(
        self,
        shards: "int | None" = None,
        hosts=None,
        max_concurrent: int = 4,
        queue_depth: int = 8,
        cache_capacity: int = 128,
        default_deadline: "float | None" = None,
        chaos=None,
    ):
        """The engine's persistent always-on match service (lazily built).

        Wraps this engine and its shard pool (:meth:`pool` — the
        service builds and installs it) in a
        :class:`~repro.service.service.MatchService`: bounded admission
        (BUSY past ``queue_depth``), per-query deadlines, cancellation
        and an LRU result cache.  Reused across
        calls; another shard layout rebuilds it, any other setting
        differing from the live service's is refused — a rebuild would
        silently drop its cache and standing registrations.
        """
        from ..service import MatchService  # lazy

        shards = self.shards if shards is None else shards
        settings = dict(
            max_concurrent=max_concurrent, queue_depth=queue_depth,
            cache_capacity=cache_capacity,
            default_deadline=default_deadline, chaos=chaos,
        )
        current = self._match_service
        if current is not None and current.num_shards != (
            shards if hosts is None else len(hosts)
        ):
            current.close()  # drain() clears the slot
            current = None
        if current is None:
            # Installs itself, and its pool, as this engine's.
            return MatchService(self, shards=shards, addresses=hosts, **settings)
        for name, wanted in settings.items():
            live = getattr(current, name)
            if live != wanted:
                raise QueryError(
                    f"the engine's live match service runs with "
                    f"{name}={live!r}; cannot hand it out as "
                    f"{name}={wanted!r} (drain it first)"
                )
        return current

    # ------------------------------------------------------------------
    # Mutation (dynamic graphs)
    # ------------------------------------------------------------------
    def _apply_local(self, batch):
        """Commit one mutation batch to the engine's own graph + store
        through the one write path, :func:`~repro.hypergraph.dynamic.
        apply_batch` (promotion on first use, apply, incremental index
        maintenance).  The anchor-union memo caches posting unions of
        the old rows; clearing it is mandatory, not an optimisation.

        A store the engine was *handed* may back other engines too
        (``datasets.load_store`` caches one per process) whose graphs
        would not learn of the new edge ids, so the first mutation
        builds a private store of the same backend instead of writing
        to the shared one.

        Internal: callers go through :meth:`apply_mutations`, which
        also propagates to the live pool and the match service.
        """
        from ..hypergraph.dynamic import apply_batch  # lazy: cheap

        if not self._owns_store:
            self.store = PartitionedStore(
                self.data, index_backend=self.index_backend
            )
            self._owns_store = True
        self.data, result = apply_batch(self.store, batch)
        self._anchor_memo.clear()
        return result

    def apply_mutations(self, batch):
        """Commit a mutation batch engine-wide and return its
        :class:`~repro.hypergraph.dynamic.MutationResult`.

        The local graph and store update incrementally, and the
        engine's pool (:meth:`pool`), when live, receives the same
        batch via a MUTATE broadcast so its workers maintain their
        stores in lock-step (a pool not yet started simply builds from
        the mutated graph on first use).  When a match service wraps
        this engine, the commit goes through
        :meth:`~repro.service.service.MatchService.apply_mutations`
        instead, which additionally fences in-flight queries,
        invalidates the result cache and emits standing-query deltas.
        """
        service = self._match_service
        if service is not None:
            return service.apply_mutations(batch)
        result = self._apply_local(batch)
        if self._pool is not None:
            self._pool.mutate(self, batch, result)
        return result

    def close(self) -> None:
        """Release the match service and the shard pool, if started.

        The references are dropped first and the pool's close (a no-op
        after a service's drain closed the pool it holds) sits in a
        ``finally``: a drain that raises cannot leave worker processes
        running, and a repeated ``close()`` is a no-op.
        """
        service, self._match_service = self._match_service, None
        pool, self._pool = self._pool, None
        try:
            if service is not None:
                service.close()
        finally:
            if pool is not None:
                pool.close()

    def count_vertex_embeddings(
        self, query: Hypergraph, order: "Sequence[int] | None" = None
    ) -> int:
        """Count embeddings at *vertex mapping* granularity.

        Sums, over hyperedge-level embeddings, the number of injective
        vertex mappings each one admits — the quantity the match-by-vertex
        baselines enumerate natively.
        """
        return sum(
            embedding.num_vertex_mappings() for embedding in self.match(query, order)
        )

    # ------------------------------------------------------------------
    # BFS execution (for the scheduling-memory experiment, Exp-5)
    # ------------------------------------------------------------------
    def count_bfs(
        self,
        query: Hypergraph,
        order: "Sequence[int] | None" = None,
        counters: "MatchCounters | None" = None,
        time_budget: "float | None" = None,
        executor: "str | None" = None,
    ) -> int:
        """Count embeddings with breadth-first (level-synchronous) execution.

        Materialises every intermediate result of each level, exactly the
        strategy the paper's Exp-5 compares against: ``peak_retained`` on
        the supplied counters then reflects the exponential intermediate
        blow-up that the task-based scheduler avoids.

        ``executor``: ``None``/``"sequential"`` — the single-threaded
        in-process loop is the only one.  Every parallel executor is
        task-parallel and exists under :meth:`count` only: the shard
        pool's members each run a root part of the block-DFS
        (:class:`QueryError` here, naming the :meth:`count` spelling).
        """
        if executor not in (None, "sequential"):
            if executor not in _EXECUTORS:
                raise QueryError(
                    f"unknown executor {executor!r}; expected one of "
                    f"{_EXECUTORS}"
                )
            raise QueryError(
                f"count_bfs has no {executor!r} executor: that one is "
                f"task-parallel, not level-synchronous; "
                f"use count(executor={executor!r})"
            )
        plan = self.plan(query, order)
        deadline = None if time_budget is None else time.monotonic() + time_budget
        if counters is not None:
            counters.note_work_model(WORK_UNIT_MODELS.get(self.index_backend, ""))
        state = VertexStepState(self.data)
        last_step = plan.num_steps - 1
        # Levels are barriers.  The last level is counted, not built;
        # ``peak_retained`` records its size all the same, as Exp-5's
        # level-synchronous strategy would hold it.  A level is columns
        # (see repro.core.frontier), the root level ``([], 1)``.
        cols: List[List[int]] = []
        n = 1
        width = 0
        for step in range(plan.num_steps):
            partition = self.store.partition(plan.steps[step].signature)
            children: List[List[int]] = [[] for _ in range(step + 1)]
            width = 0
            for block_cols, size in frontier_blocks(
                cols, n if partition is not None else 0
            ):
                if deadline is not None and time.monotonic() > deadline:
                    raise TimeoutExceeded(
                        time.monotonic() - (deadline - time_budget), time_budget
                    )
                accepted, sets = expand_block(
                    self.data, partition, plan, step, block_cols, size, state,
                    counters, self._anchor_memo, step < last_step,
                )
                width += accepted
                if accepted and step < last_step:
                    block, _ = next(_child_blocks(
                        block_cols, size,
                        map(decoder(partition), reversed(sets)), accepted,
                    ))
                    for column, more in zip(children, block):
                        column += more
            if counters is not None:
                counters.tasks += n
                counters.retained = width
                counters.peak_retained = max(counters.peak_retained, width)
            cols, n = children, width
        if counters is not None:
            counters.embeddings += width
        return width
