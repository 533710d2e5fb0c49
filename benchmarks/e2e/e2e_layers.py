"""The traced run: per-layer metrics of the layers on one workload's path.

No program source is instrumented.  Spans and counters are recorded
here, around calls into each layer's public functions, on the graph and
a sample of the queries of the workload being traced.  Each workload
measures the groups of :data:`PATH` — the layers that do its work — and
reports nothing for the others:

* the sequential path is re-driven by :func:`traced_count`, a LIFO loop
  that calls Algorithm 4 (``generate_candidate_set``) and Algorithm 5
  (``is_valid_expansion``) itself with a clock around each call — the
  probe sequence is the engine's own, so what is left of an untraced
  ``HGMatch.count`` pass after plan, gen and check is the engine loop;
* the sharded path runs ``run_level_synchronous`` over
  :class:`InProcessShards`, an object with the documented executor
  surface that builds ``StoreShard``s and calls ``expand_level``
  directly, capturing frontiers and payloads for the codec and frame
  replays;
* the service path is measured on an in-process ``MatchService`` and on
  the replies of the workload's own daemon;
* the mutation path replays svc_mutate's batches through
  ``DynamicHypergraph.apply``, the index maintenance and the journal;
* the workload's own loop runs once untraced and once traced
  (:class:`TracedRun`), which gives the tracing overhead and, on the
  service workloads, the server's share of each request and the cache
  and refusal figures as the workload saw them.

This module imports deeper than the stable surface, so every group is
computed under :meth:`Ladder.group`: a layer function that is missing
or has changed yields ``None`` for its metrics plus a note, never a
failed run.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import pickle
import threading
import time
from statistics import median
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import HGMatch

from e2e_inputs import Inputs
from e2e_measure import Tracer, percentile
from e2e_workloads import (
    ROUNDS_PER_BLOCK,
    SHARDS,
    InProcessSystem,
    Reply,
    Run,
    ServiceSystem,
    Tally,
)

BACKENDS = ("merge", "bitset", "adaptive")
DEFAULT_BACKEND = "merge"
#: Commits replayed through dynamic / index / journal alone: two
#: snapshot cycles at the default interval of 64.
JOURNAL_COMMITS = 130

#: name -> unit of every per-layer metric, in report order.
LAYER_METRICS: Dict[str, str] = {
    "storage.build_s": "s",
    "storage.index_entries": "count",
    "plan.plan_ms_p50": "ms",
    "candidates.gen_s.merge": "s",
    "candidates.gen_s.bitset": "s",
    "candidates.gen_s.adaptive": "s",
    "candidates.probes": "count",
    "candidates.produced": "count",
    "validation.check_s.tuple": "s",
    "validation.check_s.mask": "s",
    "validation.calls": "count",
    "validation.accept_ratio": "ratio",
    "engine.count_s.merge": "s",
    "engine.count_s.bitset": "s",
    "engine.count_s.adaptive": "s",
    "engine.loop_s": "s",
    "engine.tasks": "count",
    "engine.peak_retained": "count",
    "threads.count_s": "s",
    "shard.busy_s_max": "s",
    "shard.cpu_s_sum": "s",
    "shard.work_amplification": "ratio",
    "shard.imbalance": "ratio",
    "level_sync.coord_self_s": "s",
    "level_sync.levels": "count",
    "level_sync.frontier_peak": "count",
    "level_sync.payload_bytes": "bytes",
    "codec.encode_s": "s",
    "codec.decode_s": "s",
    "codec.compose_s": "s",
    "transport.frontier_pickle_s": "s",
    "transport.frontier_bytes": "bytes",
    "transport.frame_s": "s",
    "transport.frame_bytes": "bytes",
    "service.exec_ms_p50": "ms",
    "daemon.overhead_ms_p50": "ms",
    "client.encode_ms_p50": "ms",
    "service.direct_ms_p50": "ms",
    "mux.frames_per_query": "count",
    "mux.concurrency_speedup": "ratio",
    "service.busy_refusals": "count",
    "cache.hit_ratio": "ratio",
    "cache.hit_ms_p50": "ms",
    "cache.miss_ms_p50": "ms",
    "dynamic.apply_ms_p50": "ms",
    "index.maintain_ms_p50": "ms",
    "journal.append_ms_p50": "ms",
    "journal.append_ms_p95": "ms",
    "journal.bytes_per_batch": "bytes",
    "journal.write_amplification": "ratio",
    "mutate.barrier_ms_p50": "ms",
    "trace.overhead_ratio": "ratio",
}

#: workload -> the groups of the ladder on its path (methods of
#: :class:`Ladder`).  ``enum_seq`` is where the engine's layers are
#: measured, ``enum_shards`` the sharded executor's; ``svc_conc`` runs on
#: the same graph and queries and would only repeat them.  ``svc_mutate``
#: shares ``svc_point``'s graph and daemon path.
PATH: Dict[str, Tuple[str, ...]] = {
    "enum_seq": ("storage", "engine", "sequential"),
    "enum_shards": ("storage", "sharded"),
    "svc_point": ("storage", "plan", "engine", "service"),
    "svc_conc": ("storage", "service"),
    "svc_mutate": ("storage", "mutation"),
}


# ----------------------------------------------------------------------
# Sequential path
# ----------------------------------------------------------------------


class LoopStats:
    """What :func:`traced_count` accumulates over a pass."""

    def __init__(self) -> None:
        self.plan_seconds: List[float] = []
        self.gen_s = 0.0
        self.check_s = 0.0
        self.probes = 0
        self.produced = 0
        self.accepted = 0
        self.tasks = 0
        self.peak_retained = 0


def traced_count(engine: HGMatch, query, tracer: Tracer, stats: LoopStats,
                 memo, query_id: int) -> int:
    """``engine.count(query)`` re-driven from outside with a clock
    around every Algorithm 4 and Algorithm 5 call.

    Validation time includes iterating the candidate set (the bit scan
    of a mask, the tuple walk) and collecting the survivors, as the
    engine's ``expand`` does in the same loop."""
    from repro.core.candidates import VertexStepState, generate_candidate_set
    from repro.core.validation import is_valid_expansion

    clock = time.perf_counter
    with tracer.span("query", query_id):
        with tracer.span("plan") as span:
            plan = engine.plan(query)
        stats.plan_seconds.append(span["end"] - span["start"])
        with tracer.span("enumerate"):
            data, store = engine.data, engine.store
            state = VertexStepState(data)
            step_tuples = state.step_tuples
            step_masks = state.step_masks if engine.uses_mask_validation else None
            num_steps = plan.num_steps
            total = 0
            stack: List[Tuple[int, ...]] = [()]
            while stack:
                matched = stack.pop()
                stats.tasks += 1
                step_plan = plan.steps[len(matched)]
                partition = store.partition(step_plan.signature)
                if partition is None:
                    continue
                vmap = state.advance(matched)
                final = step_plan.step == num_steps - 1
                size = len(vmap)
                t0 = clock()
                candidates = generate_candidate_set(
                    data, partition, step_plan, matched, vmap, None, memo=memo
                )
                t1 = clock()
                survivors = [
                    candidate
                    for candidate in candidates
                    if is_valid_expansion(
                        data, step_plan, vmap, size, candidate, None,
                        final_step=final, step_tuples=step_tuples,
                        step_masks=step_masks,
                    )
                ]
                t2 = clock()
                stats.gen_s += t1 - t0
                stats.check_s += t2 - t1
                stats.probes += 1
                stats.produced += len(candidates)
                stats.accepted += len(survivors)
                if final:
                    total += len(survivors)
                else:
                    stack.extend(matched + (edge,) for edge in survivors)
                    if len(stack) > stats.peak_retained:
                        stats.peak_retained = len(stack)
    return total


# ----------------------------------------------------------------------
# Sharded path
# ----------------------------------------------------------------------


class InProcessShards:
    """The documented executor surface of ``run_level_synchronous``
    (``num_shards``, ``_ensure_pool``, ``_broadcast``, ``_gather``)
    with the shards held in this process: what a worker process does on
    each message happens inline, under a span, and frontiers and reply
    payloads are kept for the codec and frame replays."""

    def __init__(self, num_shards: int, tracer: Tracer) -> None:
        self.num_shards = num_shards
        self.tracer = tracer
        self.graph = None
        self.backend = DEFAULT_BACKEND
        self.mask_validation = False
        self.shards: list = []
        self.memos: list = []
        self.jobs: list = []
        self.replies: Optional[list] = None
        self.levels = 0
        self.frontier_peak = 0
        self.frontier_bytes = 0
        self.pickle_s = 0.0
        self.expand_s = 0.0
        #: ``(step signature, payloads, embeddings)`` of every
        #: intermediate level reply.
        self.captured: List[Tuple[object, list, int]] = []

    def _ensure_pool(self, engine) -> None:
        from repro.core.candidates import AnchorUnionMemo
        from repro.hypergraph.sharding import StoreShard

        if self.graph is engine.data:
            return
        self.graph = engine.data
        self.backend = engine.index_backend
        self.mask_validation = engine.uses_mask_validation
        self.shards = [
            StoreShard.build(
                engine.data, shard_id, self.num_shards, self.backend, "uniform"
            )
            for shard_id in range(self.num_shards)
        ]
        self.memos = [AnchorUnionMemo() for _ in self.shards]

    def _broadcast(self, message) -> None:
        from repro.core.candidates import VertexStepState
        from repro.core.counters import MatchCounters
        from repro.core.plan import build_execution_plan
        from repro.parallel.level_sync import expand_level
        from repro.parallel.tasks import WorkerStats

        kind = message[0]
        if kind == "job":
            _, query, order = message
            self.jobs = [
                {
                    "plan": build_execution_plan(
                        query, order, index_backend=self.backend
                    ),
                    "counters": MatchCounters(),
                    "stats": WorkerStats(worker_id=shard_id),
                    "state": VertexStepState(self.graph),
                }
                for shard_id in range(self.num_shards)
            ]
        elif kind == "level":
            # The process pool pickles the message once and every worker
            # unpickles its own copy.
            with self.tracer.span("frontier.pickle") as span:
                wire = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
                copies = [pickle.loads(wire) for _ in self.shards]
            self.pickle_s += span["end"] - span["start"]
            self.frontier_bytes += len(wire) * self.num_shards
            self.levels += 1
            step = message[1]
            self.frontier_peak = max(self.frontier_peak, len(message[2]))
            self.replies = []
            for shard, memo, job, (_, _, frontier) in zip(
                self.shards, self.memos, self.jobs, copies
            ):
                plan = job["plan"]
                with self.tracer.span("shard.expand") as span:
                    reply = expand_level(
                        self.graph, shard, plan, step, frontier,
                        job["state"], job["counters"], job["stats"], memo,
                        self.mask_validation,
                    )
                self.expand_s += span["end"] - span["start"]
                if step == plan.num_steps - 1:
                    reply = reply + (job["counters"], job["stats"])
                elif reply[1] is not None:
                    self.captured.append(
                        (plan.steps[step].signature, reply[1], reply[2])
                    )
                self.replies.append(reply)
        elif kind == "collect":
            self.replies = [
                (job["counters"], job["stats"]) for job in self.jobs
            ]

    def _gather(self) -> list:
        replies, self.replies = self.replies, None
        return replies


# ----------------------------------------------------------------------
# The traced workload pass
# ----------------------------------------------------------------------


class TracedRun(Run):
    """The workload's own loop with a span around every operation; on
    the in-process systems the traced engine paths stand in for
    ``HGMatch.count`` while tracing is on."""

    def __init__(self, inputs: Inputs, work: str, tracer: Tracer) -> None:
        super().__init__(inputs, work)
        self.tracer = tracer
        self.tracing = False
        self.loop_stats = LoopStats()
        self._query_ids = iter(range(1 << 62))
        self._memo = None
        self._shards = InProcessShards(SHARDS, tracer)

    def query(self, query) -> Reply:
        system = self.system
        if not (self.tracing and isinstance(system, InProcessSystem)):
            return system.query(query)
        if system.executor is None:
            from repro.core.candidates import AnchorUnionMemo

            if self._memo is None:
                self._memo = AnchorUnionMemo()
            return Reply(traced_count(
                system.engine, query, self.tracer, self.loop_stats,
                self._memo, next(self._query_ids),
            ))
        from repro.parallel.level_sync import run_level_synchronous

        return Reply(
            run_level_synchronous(self._shards, system.engine, query).embeddings
        )

    def ask(self, query, expected, want_cached) -> None:
        if not self.tracing:
            return super().ask(query, expected, want_cached)
        with self.tracer.span("request", next(self._query_ids)):
            super().ask(query, expected, want_cached)

    def commit(self, batch, expected_version) -> None:
        if not self.tracing:
            return super().commit(batch, expected_version)
        with self.tracer.span("commit"):
            super().commit(batch, expected_version)

    def both_passes(self) -> Tuple[float, float]:
        """One untraced and one traced pass of the workload's own loop;
        returns their walls."""
        if not self.inputs.batches:
            self.sweep()  # warm-up
            traffic = [self.sweep, self.sweep]
        else:
            half = min(ROUNDS_PER_BLOCK, len(self.inputs.batches) // 2)
            traffic = [
                lambda: self.mutate_rounds(range(half)),
                lambda: self.mutate_rounds(range(half, 2 * half)),
            ]
        walls = []
        for tracing, run_pass in zip((False, True), traffic):
            self.tracing = tracing
            walls.append(self.measured_pass(run_pass).wall())
        self.tracing = False
        return walls[0], walls[1]


# ----------------------------------------------------------------------
# The ladder
# ----------------------------------------------------------------------


class Ladder:
    """Per-layer metrics of the layers on one workload's path."""

    def __init__(self, inputs: Inputs, work: str) -> None:
        self.inputs = inputs
        self.work = work
        self.graph = inputs.graph
        self.sample = inputs.queries[:inputs.scale.trace_queries[inputs.graph_kind]]
        self.tracer = Tracer()
        self.tally = Tally()
        self.values: Dict[str, Optional[float]] = {}
        self.notes: List[str] = []
        self.detail: dict = {}
        #: svc_mutate's own commit p50, for ``mutate.barrier_ms_p50``.
        self.commit_ms_p50: Optional[float] = None

    def group(self, names: Sequence[str], compute: Callable[[], Dict[str, float]]) -> None:
        """Run one group of metrics; a missing or changed layer function
        nulls the group and leaves a note."""
        try:
            result = compute()
        except (ImportError, AttributeError, TypeError, NameError, KeyError) as exc:
            self.notes.append(
                f"{', '.join(names)}: null — layer surface missing or "
                f"changed ({type(exc).__name__}: {exc})"
            )
            result = {}
        for name in names:
            self.values[name] = result.get(name)

    def checked_pass(self, label: str, count: Callable) -> float:
        """Wall time of one pass of ``count`` over the sample; every
        answer is held against the oracle."""
        started = time.perf_counter()
        for query, expected in self.sample:
            got = count(query)
            self.tally.record(
                got == expected, f"{label}: counted {got}, oracle {expected}"
            )
        return time.perf_counter() - started

    # -- the workload itself ----------------------------------------------

    def workload(self) -> None:
        """One untraced and one traced pass of the workload's own loop:
        the tracing overhead and, where a daemon answers, what its
        replies say about the server's share, the cache and refusals."""
        inputs = self.inputs
        if not inputs.batches:
            inputs = dataclasses.replace(inputs, queries=list(self.sample))
        run = TracedRun(inputs, self.work, self.tracer)
        run.tally = self.tally
        try:
            run.set_up(1)
            untraced, traced = run.both_passes()
        finally:
            run.system.stop()
        self.values["trace.overhead_ratio"] = traced / untraced
        if not isinstance(run.system, ServiceSystem):
            return
        samples = [q for p in run.passes for q in p.samples]
        walls = [q.seconds for q in samples if not q.cached]
        server = [q.elapsed for q in samples if not q.cached]
        hits = [q.seconds for q in samples if q.cached]
        wall_ms = median(walls) * 1e3
        exec_ms = median(server) * 1e3
        overhead_ms = median(w - e for w, e in zip(walls, server)) * 1e3
        if abs(exec_ms + overhead_ms - wall_ms) > 0.10 * wall_ms:
            self.notes.append(
                f"service.exec_ms_p50 + daemon.overhead_ms_p50 = "
                f"{exec_ms + overhead_ms:.3f} ms is not within 10 % of the "
                f"client's median wall {wall_ms:.3f} ms"
            )
        self.values.update({
            "service.exec_ms_p50": exec_ms,
            "daemon.overhead_ms_p50": overhead_ms,
            "service.busy_refusals": run.busy_refusals,
            "cache.hit_ratio": len(hits) / max(1, len(samples)),
        })
        if hits:
            self.values["cache.hit_ms_p50"] = median(hits) * 1e3
            self.values["cache.miss_ms_p50"] = wall_ms
        commits = [c for p in run.passes for c in p.commits]
        if commits:
            self.commit_ms_p50 = percentile(commits, 50) * 1e3

    # -- storage ------------------------------------------------------------

    def storage(self) -> None:
        def compute():
            from repro.hypergraph import PartitionedStore

            started = time.perf_counter()
            store = PartitionedStore(self.graph, index_backend=DEFAULT_BACKEND)
            return {
                "storage.build_s": time.perf_counter() - started,
                "storage.index_entries": store.index_size_entries(),
            }

        self.group(("storage.build_s", "storage.index_entries"), compute)

    # -- plan, Algorithm 4/5, engine loop, threads -------------------------

    def plan(self) -> None:
        def compute():
            engine = HGMatch(self.graph)
            seconds = []
            try:
                for query, _ in self.sample:
                    started = time.perf_counter()
                    engine.plan(query)
                    seconds.append(time.perf_counter() - started)
            finally:
                engine.close()
            return {"plan.plan_ms_p50": median(seconds) * 1e3}

        self.group(("plan.plan_ms_p50",), compute)

    def engine(self) -> None:
        """One untraced sequential pass per backend; all three must
        agree with the oracle."""
        def per_backend(backend: str):
            def compute():
                engine = HGMatch(self.graph, index_backend=backend)
                try:
                    return {f"engine.count_s.{backend}": self.checked_pass(
                        f"engine.count[{backend}]", engine.count
                    )}
                finally:
                    engine.close()

            return compute

        for backend in BACKENDS:
            self.group((f"engine.count_s.{backend}",), per_backend(backend))

    def sequential(self) -> None:
        loops: Dict[str, LoopStats] = {}

        def per_backend(backend: str):
            def compute():
                from repro.core.candidates import AnchorUnionMemo

                engine = HGMatch(self.graph, index_backend=backend)
                stats, memo = LoopStats(), AnchorUnionMemo()
                ids = iter(range(len(self.sample)))
                try:
                    self.detail[f"traced_pass_s.{backend}"] = self.checked_pass(
                        f"traced_count[{backend}]",
                        lambda q: traced_count(
                            engine, q, self.tracer, stats, memo, next(ids)
                        ),
                    )
                finally:
                    engine.close()
                loops[backend] = stats
                return {f"candidates.gen_s.{backend}": stats.gen_s}

            return compute

        for backend in BACKENDS:
            self.group((f"candidates.gen_s.{backend}",), per_backend(backend))

        def funnel():
            stats = loops[DEFAULT_BACKEND]
            mask = loops.get("bitset") or loops["adaptive"]
            count_s = self.values[f"engine.count_s.{DEFAULT_BACKEND}"]
            loop_s = count_s - sum(stats.plan_seconds) - stats.gen_s - stats.check_s
            if loop_s < 0:
                self.notes.append(
                    f"engine.loop_s is negative ({loop_s:.4f} s): the clocked "
                    "layers cost more than the untraced pass"
                )
            return {
                "plan.plan_ms_p50": median(stats.plan_seconds) * 1e3,
                "candidates.probes": stats.probes,
                "candidates.produced": stats.produced,
                "validation.check_s.tuple": stats.check_s,
                "validation.check_s.mask": mask.check_s,
                "validation.calls": stats.produced,
                "validation.accept_ratio": stats.accepted / max(1, stats.produced),
                "engine.loop_s": loop_s,
                "engine.tasks": stats.tasks,
                "engine.peak_retained": stats.peak_retained,
            }

        self.group(
            ("plan.plan_ms_p50", "candidates.probes", "candidates.produced",
             "validation.check_s.tuple", "validation.check_s.mask",
             "validation.calls", "validation.accept_ratio", "engine.loop_s",
             "engine.tasks", "engine.peak_retained"),
            funnel,
        )

        def threads():
            engine = HGMatch(self.graph)
            try:
                return {
                    "threads.count_s": self.checked_pass(
                        "threads",
                        lambda q: engine.count(q, executor="threads", workers=2),
                    )
                }
            finally:
                engine.close()

        self.group(("threads.count_s",), threads)

    # -- level-sync, shards, codec, transport -----------------------------

    def sharded(self) -> None:
        executor = InProcessShards(SHARDS, self.tracer)

        def level_sync():
            from repro.parallel.level_sync import run_level_synchronous

            engine = HGMatch(self.graph)
            busy_max = busy_mean = cpu_sum = elapsed = 0.0
            payload_bytes = 0
            try:
                # The base of shard.work_amplification.
                sequential = self.checked_pass("engine.count", engine.count)
                for query_id, (query, expected) in enumerate(self.sample):
                    with self.tracer.span("level_sync.query", query_id):
                        result = run_level_synchronous(executor, engine, query)
                    self.tally.record(
                        result.embeddings == expected,
                        f"level_sync: counted {result.embeddings}, "
                        f"oracle {expected}",
                    )
                    busy = [s.busy_time for s in result.worker_stats]
                    busy_max += max(busy)
                    busy_mean += sum(busy) / len(busy)
                    cpu_sum += sum(s.cpu_time for s in result.worker_stats)
                    payload_bytes += sum(
                        s.payload_bytes for s in result.worker_stats
                    )
                    elapsed += result.elapsed
            finally:
                engine.close()
            return {
                f"engine.count_s.{DEFAULT_BACKEND}": sequential,
                "shard.busy_s_max": busy_max,
                "shard.cpu_s_sum": cpu_sum,
                "shard.work_amplification": cpu_sum / sequential,
                "shard.imbalance": busy_max / busy_mean if busy_mean else 1.0,
                # Shards run one after the other here, so what the
                # coordinator itself spent is the job minus *every*
                # shard's expand: frontier broadcast, payload decode,
                # fold and next-frontier build.
                "level_sync.coord_self_s": elapsed - executor.expand_s,
                "level_sync.levels": executor.levels,
                "level_sync.frontier_peak": executor.frontier_peak,
                "level_sync.payload_bytes": payload_bytes,
                "transport.frontier_pickle_s": executor.pickle_s,
                "transport.frontier_bytes": executor.frontier_bytes,
            }

        self.group(
            (f"engine.count_s.{DEFAULT_BACKEND}",
             "shard.busy_s_max", "shard.cpu_s_sum", "shard.work_amplification",
             "shard.imbalance", "level_sync.coord_self_s", "level_sync.levels",
             "level_sync.frontier_peak", "level_sync.payload_bytes",
             "transport.frontier_pickle_s", "transport.frontier_bytes"),
            level_sync,
        )

        def replays():
            from repro.core.candidates import (
                CandidateAccumulator,
                candidate_set_from_bytes,
                encode_versioned,
            )
            from repro.hypergraph import PartitionedStore
            from repro.parallel.transport import (
                MSG_LEVEL_REPLY,
                decode_frame,
                decode_level_reply,
                encode_frame,
                encode_level_reply,
            )

            store = PartitionedStore(self.graph, index_backend=executor.backend)
            clock = time.perf_counter
            encode_s = decode_s = compose_s = frame_s = 0.0
            frame_bytes = 0
            for signature, payloads, embeddings in executor.captured:
                index = store.partition(signature).index
                live = [payload for payload in payloads if payload is not None]
                t0 = clock()
                decoded = [candidate_set_from_bytes(p, index) for p in live]
                t1 = clock()
                for candidates in decoded:
                    candidates.to_bytes()
                t2 = clock()
                for candidates in decoded:
                    accumulator = CandidateAccumulator()
                    accumulator.add(candidates, key=0)
                    accumulator.result()
                t3 = clock()
                versioned = [
                    None if p is None else encode_versioned(p) for p in payloads
                ]
                t4 = clock()
                frame = encode_frame(
                    MSG_LEVEL_REPLY, encode_level_reply(versioned, embeddings)
                )
                decode_level_reply(decode_frame(frame)[1])
                t5 = clock()
                decode_s += t1 - t0
                encode_s += t2 - t1
                compose_s += t3 - t2
                frame_s += t5 - t4
                frame_bytes += len(frame)
            return {
                "codec.encode_s": encode_s,
                "codec.decode_s": decode_s,
                "codec.compose_s": compose_s,
                "transport.frame_s": frame_s,
                "transport.frame_bytes": frame_bytes,
            }

        self.group(
            ("codec.encode_s", "codec.decode_s", "codec.compose_s",
             "transport.frame_s", "transport.frame_bytes"),
            replays,
        )

    # -- service, mux, client ----------------------------------------------

    def service(self) -> None:
        def in_process():
            from repro.service import MatchService

            engine = HGMatch(self.graph)
            service = MatchService(engine, shards=SHARDS, cache_capacity=0)
            try:
                service.match(self.sample[0][0])  # spawns the pool
                frames = service.pool.dispatched_frames
                direct: List[float] = []

                def timed(query):
                    started = time.perf_counter()
                    embeddings = service.match(query).embeddings
                    direct.append(time.perf_counter() - started)
                    return embeddings

                one_client = self.checked_pass("MatchService", timed)
                frames = service.pool.dispatched_frames - frames

                def half(index):
                    for query, _ in self.sample[index::2]:
                        service.match(query)

                threads = [
                    threading.Thread(target=half, args=(index,))
                    for index in range(2)
                ]
                started = time.perf_counter()
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                two_clients = time.perf_counter() - started
            finally:
                service.close()
                engine.close()
            return {
                "service.direct_ms_p50": median(direct) * 1e3,
                "mux.frames_per_query": frames / len(self.sample),
                "mux.concurrency_speedup": one_client / two_clients,
            }

        self.group(
            ("service.direct_ms_p50", "mux.frames_per_query",
             "mux.concurrency_speedup"),
            in_process,
        )

        def client_encode():
            from repro.hypergraph.io import dump_native

            seconds = []
            for query, _ in self.sample:
                started = time.perf_counter()
                buffer = io.StringIO()
                dump_native(query, buffer)
                json.dumps({"query": buffer.getvalue(), "order": None,
                            "deadline": None})
                seconds.append(time.perf_counter() - started)
            return {"client.encode_ms_p50": median(seconds) * 1e3}

        self.group(("client.encode_ms_p50",), client_encode)

    # -- dynamic graph, index maintenance, journal -------------------------

    def mutation(self) -> None:
        batches = self.inputs.batches[:JOURNAL_COMMITS]

        def compute():
            from repro.hypergraph import DynamicHypergraph, PartitionedStore
            from repro.hypergraph.journal import MutationJournal

            dynamic = DynamicHypergraph.from_hypergraph(self.graph)
            store = PartitionedStore(dynamic, index_backend=DEFAULT_BACKEND)
            directory = os.path.join(self.work, "journal-layers")
            journal = MutationJournal(directory, fsync="always")
            journal.attach(dynamic)

            def sizes():
                return {
                    name: os.path.getsize(os.path.join(directory, name))
                    for name in os.listdir(directory)
                }

            written = sum(sizes().values())  # the base snapshot
            apply_s, maintain_s, append_s = [], [], []
            batch_json = 0
            clock = time.perf_counter
            try:
                for batch in batches:
                    batch_json += len(json.dumps(batch.to_json()))
                    before = sizes()
                    t0 = clock()
                    result = dynamic.apply(batch)
                    t1 = clock()
                    store.apply_mutation_result(result)
                    t2 = clock()
                    journal.append(result.version, batch)
                    journal.maybe_snapshot(dynamic)
                    t3 = clock()
                    apply_s.append(t1 - t0)
                    maintain_s.append(t2 - t1)
                    append_s.append(t3 - t2)
                    written += sum(
                        max(0, size - before.get(name, 0))
                        for name, size in sizes().items()
                    )
                log_bytes = os.path.getsize(journal.journal_path)
            finally:
                journal.close()
            result = {
                "dynamic.apply_ms_p50": median(apply_s) * 1e3,
                "index.maintain_ms_p50": median(maintain_s) * 1e3,
                "journal.append_ms_p50": median(append_s) * 1e3,
                "journal.append_ms_p95": percentile(append_s, 95) * 1e3,
                "journal.bytes_per_batch": log_bytes / len(batches),
                "journal.write_amplification": written / batch_json,
            }
            if self.commit_ms_p50 is not None:
                # What a commit costs its caller beyond the layers timed
                # alone: barrier drain, MUTATE broadcast, JSON, socket.
                result["mutate.barrier_ms_p50"] = (
                    self.commit_ms_p50
                    - result["dynamic.apply_ms_p50"]
                    - result["index.maintain_ms_p50"]
                    - result["journal.append_ms_p50"]
                )
            return result

        self.group(
            ("dynamic.apply_ms_p50", "index.maintain_ms_p50",
             "journal.append_ms_p50", "journal.append_ms_p95",
             "journal.bytes_per_batch", "journal.write_amplification",
             "mutate.barrier_ms_p50"),
            compute,
        )

    # -- all of it ----------------------------------------------------------

    def run(self) -> Tuple[Dict[str, Tuple[Optional[float], str]], dict, Tally]:
        self.workload()
        for group in PATH[self.inputs.workload]:
            getattr(self, group)()
        off_path = [name for name in LAYER_METRICS if name not in self.values]
        if off_path:
            self.notes.append(
                f"not on {self.inputs.workload}'s path (reported as null): "
                + ", ".join(off_path)
            )
        values = {
            name: (self.values.get(name), unit)
            for name, unit in LAYER_METRICS.items()
        }
        tracer = self.tracer
        self.detail.update(
            notes=self.notes,
            trace_queries=len(self.sample),
            failures=list(self.tally.reasons),
            span_self_s=tracer.self_seconds_by_name(),
            spans=tracer.compact(),
        )
        return values, self.detail, self.tally
