"""The multiprocess executor: one worker process per store shard.

This is the execution engine that escapes the GIL for real: the
partitioned store is split along its row spaces
(:class:`repro.hypergraph.sharding.StoreShard`), each worker process
builds and owns exactly one shard (~``1/num_shards`` of the index), and
enumeration proceeds level-synchronously over the paper's task tree:

1. the parent broadcasts the current frontier of partial embeddings
   (self-contained edge-id tuples, Definition VI.1) to every shard;
2. each shard runs Algorithm 4 + Algorithm 5 for every partial against
   *its rows only* — candidate generation distributes over the
   row-disjoint split (see :mod:`repro.hypergraph.sharding`), and each
   surviving candidate is validated in exactly the one shard that owns
   its row, so no expansion work is duplicated across processes;
3. survivors come back as compact wire payloads
   (:meth:`repro.core.candidates.CandidateSet.to_bytes` in global row
   coordinates — row bitmasks or roaring-style chunk maps, never
   decoded edge-id lists), and the parent composes the per-shard sets
   with the container-pairwise ``|`` algebra
   (:func:`repro.core.candidates.compose_candidate_sets`) before
   extending the frontier.

The per-shard duplication is limited to the *query-side* anchor-image
filtering (a scan of the previous images' vertices, independent of
partition size); all data-side work — posting algebra, validation —
splits across shards.  ``MatchCounters`` come back per worker with
their ``work_model`` tags and are merged by the parent
(:meth:`~repro.core.counters.MatchCounters.merge` surfaces model
mixtures instead of silently adding incomparable units), and per-shard
:class:`~repro.parallel.tasks.WorkerStats` record the payload bytes
that actually crossed each process boundary.

Workers are spawn-safe: the worker entry point is a module-level
function, every message crosses a :class:`multiprocessing.Pipe` as
picklable data, and no global state is assumed — ``start_method`` may
be ``"fork"``, ``"spawn"`` or ``"forkserver"``.  The pool persists
across queries (shards are built once per data graph) and worker
processes are daemonic, so an exiting parent never leaks them.
"""

from __future__ import annotations

import pickle
from multiprocessing import get_context
from multiprocessing.connection import wait as _connection_wait
from typing import Sequence

from ..core.candidates import AnchorUnionMemo, VertexStepState
from ..core.counters import WORK_UNIT_MODELS, MatchCounters
from ..core.plan import build_execution_plan
from ..errors import SchedulerError
from ..hypergraph import Hypergraph
from ..hypergraph.dynamic import DynamicHypergraph
from ..hypergraph.sharding import (
    StoreShard,
    mutate_range_table,
    resolve_sharding,
    shard_grouping,
)
from ..hypergraph.storage import resolve_index_backend
from .executor import ParallelResult
from .level_sync import expand_level, plan_pool_rebalance
from .tasks import WorkerStats, default_seed, join_or_kill


# ----------------------------------------------------------------------
# Worker side (runs in the shard's own process)
# ----------------------------------------------------------------------


def _shard_worker_main(
    conn,
    graph: Hypergraph,
    shard_id: int,
    num_shards: int,
    index_backend: str,
    sharding: str = "uniform",
) -> None:
    """Worker entry point: build the shard once, then serve jobs.

    Message protocol (all tuples, first element is the kind):
    ``("job", query, order)`` resets per-job state; ``("level", step,
    frontier)`` answers with the level reply; ``("collect",)`` returns
    ``(counters, stats)``; ``("rebalance", label, ranges)`` rebuilds
    the shard from an explicit range slice (between jobs) and answers
    ``("rebalanced", label)``; ``("mutate", batch)`` applies one
    committed mutation batch to the worker's own graph copy and shard
    (between jobs) and answers ``("mutated", version, edges,
    vertices)``; ``("stop",)`` exits.  Any worker-side exception is
    reported as ``("error", traceback)`` — the parent raises it as a
    :class:`SchedulerError`.
    """
    try:
        shard = StoreShard.build(
            graph, shard_id, num_shards, index_backend, sharding
        )
        memo = AnchorUnionMemo()
        plan = None
        state: "VertexStepState | None" = None
        counters = MatchCounters()
        stats = WorkerStats(worker_id=shard_id)
        while True:
            message = conn.recv()
            kind = message[0]
            if kind == "level":
                _, step, frontier = message
                reply = expand_level(
                    graph, shard, plan, step, frontier, state,
                    counters, stats, memo,
                )
                if step == plan.num_steps - 1:
                    # Piggyback the job accounting on the final level:
                    # saves the parent a whole collect round trip.
                    reply = reply + (counters, stats)
                conn.send(reply)
            elif kind == "job":
                _, query, order = message
                plan = build_execution_plan(
                    query, order, index_backend=index_backend
                )
                counters = MatchCounters()
                counters.note_work_model(
                    WORK_UNIT_MODELS.get(index_backend, "")
                )
                stats = WorkerStats(worker_id=shard_id)
                state = VertexStepState(graph)
            elif kind == "collect":
                conn.send((counters, stats))
            elif kind == "rebalance":
                _, label, ranges = message
                if ranges == shard.ranges():
                    # Boundaries didn't touch this shard: adopt the new
                    # placement label, keep the warm indices.
                    shard.sharding = label
                else:
                    shard = StoreShard.from_ranges(
                        graph, shard_grouping(graph), shard_id,
                        num_shards, index_backend, ranges, sharding=label,
                    )
                    # Cached anchor unions are masks over the *old*
                    # shard's rows; clearing is mandatory, not an
                    # optimisation.
                    memo.clear()
                conn.send(("rebalanced", label))
            elif kind == "mutate":
                _, batch = message
                if not isinstance(graph, DynamicHypergraph):
                    # First mutation promotes the worker's pickled copy;
                    # edge ids and row layouts are preserved, so the
                    # shard needs no rebuild.
                    graph = DynamicHypergraph.from_hypergraph(graph)
                result = graph.apply(batch)
                shard.apply_mutation_result(graph, result)
                # Cached anchor unions cover the pre-mutation rows;
                # clearing is mandatory, not an optimisation.  Job
                # state is likewise pre-mutation — drop it so a stray
                # "level" cannot run against the new rows.
                memo.clear()
                plan = None
                state = None
                conn.send((
                    "mutated", result.version,
                    graph.num_edges, graph.num_vertices,
                ))
            elif kind == "stop":
                return
            else:  # pragma: no cover - protocol misuse
                raise SchedulerError(f"unknown worker message {kind!r}")
    except (EOFError, KeyboardInterrupt):  # parent went away
        return
    except BaseException:  # report, then die visibly
        import traceback

        try:
            conn.send(("error", traceback.format_exc()))
        except (OSError, ValueError):  # pragma: no cover - pipe gone
            pass


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------


class ProcessShardExecutor:
    """Run matching jobs on ``num_shards`` worker processes.

    Parameters
    ----------
    num_shards:
        Worker-process count; each worker owns one contiguous row-range
        shard of every signature partition.
    index_backend:
        Posting-list representation the shards build (``None`` defers
        to ``REPRO_INDEX_BACKEND``/``"bitset"``); must match the
        engine's backend so payloads decode into the parent's store.
    sharding:
        Shard placement mode (``"uniform"`` row counts or ``"balanced"``
        posting mass; ``None`` means uniform) — see
        :mod:`repro.hypergraph.sharding`.  On top of either mode,
        :meth:`rebalance` recuts the live pool's ranges from observed
        per-shard load between jobs.
    start_method:
        ``multiprocessing`` start method (``"fork"``/``"spawn"``/
        ``"forkserver"``); ``None`` uses the platform default.  The
        worker protocol is spawn-safe.
    seed:
        Scheduler seed recorded for the job (``None`` resolves to
        ``REPRO_SEED``); the level-synchronous protocol is fully
        deterministic, so this only namespaces future stochastic
        policies.
    """

    def __init__(
        self,
        num_shards: int,
        index_backend: "str | None" = None,
        sharding: "str | None" = None,
        start_method: "str | None" = None,
        seed: "int | None" = None,
    ) -> None:
        if num_shards < 1:
            raise SchedulerError("num_shards must be >= 1")
        self.num_shards = num_shards
        self.index_backend = resolve_index_backend(index_backend)
        self.sharding = resolve_sharding(sharding)
        self.start_method = start_method
        self.seed = default_seed() if seed is None else seed
        self._graph: "Hypergraph | None" = None
        self._processes: list = []
        self._conns: list = []
        #: Current placement of the live pool: None until a rebalance
        #: materialises a table (the build modes are pure functions of
        #: the graph, so nothing needs to be stored for them).
        self._range_table = None
        self._sharding_label = self.sharding

    # -- pool lifecycle -------------------------------------------------

    def _ensure_pool(self, engine) -> None:
        if engine.index_backend != self.index_backend:
            raise SchedulerError(
                f"engine backend {engine.index_backend!r} does not match "
                f"executor backend {self.index_backend!r}"
            )
        if self._graph is engine.data and self._processes:
            return
        self.close()
        context = (
            get_context(self.start_method)
            if self.start_method is not None
            else get_context()
        )
        for shard_id in range(self.num_shards):
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_shard_worker_main,
                args=(
                    child_conn,
                    engine.data,
                    shard_id,
                    self.num_shards,
                    self.index_backend,
                    self.sharding,
                ),
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._processes.append(process)
            self._conns.append(parent_conn)
        self._graph = engine.data

    def close(self) -> None:
        """Stop the worker pool (idempotent)."""
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (OSError, ValueError):
                pass
            try:
                conn.close()
            except OSError:
                pass
        for index, process in enumerate(self._processes):
            join_or_kill(process, timeout=2.0, label=f"shard worker #{index}")
        self._processes = []
        self._conns = []
        self._graph = None
        # A rebalanced layout lives exactly as long as the pool that
        # observed the load; a fresh pool starts from the build mode.
        self._range_table = None
        self._sharding_label = self.sharding

    def __enter__(self) -> "ProcessShardExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - best effort
        try:
            self.close()
        except Exception:
            pass

    # -- messaging ------------------------------------------------------

    def _broadcast(self, message) -> None:
        # Pickle once, write the same bytes to every pipe (the frontier
        # is the big payload; Connection.send would re-pickle per shard).
        payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        for shard_id, conn in enumerate(self._conns):
            try:
                conn.send_bytes(payload)
            except (BrokenPipeError, OSError):
                # A worker died between jobs; tear down so the next run
                # rebuilds a healthy pool.
                self.close()
                raise SchedulerError(
                    f"shard worker {shard_id} is gone; pool torn down"
                ) from None

    def _gather_iter(self):
        """As-completed level replies: ``(shard_id, reply)`` pairs in
        arrival order (the streaming-compose hook of
        :func:`repro.parallel.level_sync.run_level_synchronous`)."""
        pending = {conn: i for i, conn in enumerate(self._conns)}
        while pending:
            for conn in _connection_wait(list(pending)):
                shard_id = pending.pop(conn)
                try:
                    reply = conn.recv()
                except EOFError:
                    # Tear the pool down: the dead worker can't serve the
                    # next job, and the survivors hold stale replies.
                    self.close()
                    raise SchedulerError(
                        f"shard worker {shard_id} died mid-job"
                    ) from None
                if (
                    isinstance(reply, tuple)
                    and reply
                    and reply[0] == "error"
                ):
                    message = reply[1]
                    self.close()
                    raise SchedulerError(
                        f"shard worker {shard_id} failed:\n{message}"
                    )
                yield shard_id, reply

    def _gather(self) -> list:
        replies = [None] * self.num_shards
        for shard_id, reply in self._gather_iter():
            replies[shard_id] = reply
        return replies

    # -- adaptive placement ----------------------------------------------

    def rebalance(self, worker_stats) -> int:
        """Recut the live pool's ranges from observed per-shard load.

        ``worker_stats`` is a completed run's
        :attr:`~repro.parallel.executor.ParallelResult.worker_stats`;
        the recut (see :func:`repro.hypergraph.sharding.
        rebalance_range_table`) shifts partition boundaries toward the
        underloaded shards while keeping every shard's position along
        the row axis, then ships *every* shard its slice of the new
        table — workers whose ranges didn't move merely adopt the new
        placement label (keeping their warm indices), so the pool
        always agrees on one label while the rebuild cost stays
        proportional to how wrong the old cut was.  Runs strictly
        between jobs.  Returns the number of shards rebuilt (0 when
        the observed load was already balanced).
        """
        if not self._conns or self._graph is None:
            raise SchedulerError(
                "no live pool to rebalance; run a job first"
            )
        plan = plan_pool_rebalance(self, worker_stats)
        if plan is None:
            return 0
        table, label, slices, moved = plan
        for shard_id in range(self.num_shards):
            try:
                self._conns[shard_id].send(
                    ("rebalance", label, slices[shard_id])
                )
            except (BrokenPipeError, OSError):
                self.close()
                raise SchedulerError(
                    f"shard worker {shard_id} is gone; pool torn down"
                ) from None
        for shard_id in range(self.num_shards):
            try:
                ack = self._conns[shard_id].recv()
            except EOFError:
                self.close()
                raise SchedulerError(
                    f"shard worker {shard_id} died during rebalance"
                ) from None
            if ack != ("rebalanced", label):
                message = ack[1] if ack and ack[0] == "error" else ack
                self.close()
                raise SchedulerError(
                    f"shard worker {shard_id} failed to rebalance:\n"
                    f"{message}"
                )
        self._range_table = table
        self._sharding_label = label
        return len(moved)

    # -- mutation --------------------------------------------------------

    def mutate(self, engine, batch, result) -> int:
        """Propagate one committed mutation batch to the live pool.

        The engine has already applied ``batch`` locally (``result`` is
        its :class:`~repro.hypergraph.dynamic.MutationResult`); each
        worker applies the same batch to its own graph copy and
        incrementally maintains its shard, then acks with its new graph
        version — determinism of
        :meth:`~repro.hypergraph.dynamic.DynamicHypergraph.apply` makes
        every worker's result identical to the engine's, which the ack
        check enforces.  Runs strictly between jobs.  A pool that is
        not running needs nothing: its next ``_ensure_pool`` builds
        workers from the already-mutated graph.  Returns the number of
        workers that applied the batch.
        """
        if not self._processes:
            return 0
        expected = (
            "mutated", result.version,
            engine.data.num_edges, engine.data.num_vertices,
        )
        self._broadcast(("mutate", batch))
        for shard_id in range(self.num_shards):
            try:
                ack = self._conns[shard_id].recv()
            except EOFError:
                self.close()
                raise SchedulerError(
                    f"shard worker {shard_id} died during mutate"
                ) from None
            if ack != expected:
                message = ack[1] if ack and ack[0] == "error" else ack
                self.close()
                raise SchedulerError(
                    f"shard worker {shard_id} diverged on mutate "
                    f"(expected {expected!r}):\n{message}"
                )
        if self._range_table is not None:
            self._range_table = mutate_range_table(
                self._range_table, result, self.num_shards
            )
        # The first mutation promotes engine.data to a dynamic graph (a
        # new object); re-point the identity check so the warm pool —
        # which just applied the same batch — is reused, not rebuilt.
        self._graph = engine.data
        return self.num_shards

    # -- execution ------------------------------------------------------

    def run(
        self,
        engine,
        query: Hypergraph,
        order: "Sequence[int] | None" = None,
        time_budget: "float | None" = None,
        stream: bool = True,
    ) -> ParallelResult:
        """Execute one matching job across the shard pool.

        Delegates to the transport-agnostic level-synchronous protocol
        (:func:`repro.parallel.level_sync.run_level_synchronous`) — the
        same loop the socket executor runs, so the two transports
        cannot drift apart.  Counts are bit-identical to the sequential
        engine; ``time_budget`` is enforced at level granularity;
        ``stream=False`` forces the barrier gather (the benchmarks'
        baseline for the streaming-compose comparison).
        """
        from .level_sync import run_level_synchronous  # lazy: avoid cycle

        return run_level_synchronous(
            self, engine, query, order=order, time_budget=time_budget,
            stream=stream,
        )
