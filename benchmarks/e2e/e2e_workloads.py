"""The five workloads, end to end.

Each workload is a *system* (how the program is stood up and asked) and
a *traffic shape* (sweeps over a query list by one or two closed-loop
clients, or svc_mutate's commit-then-ask rounds).  Only the public
surface is driven: ``python -m repro serve-match FILE.hg``,
``MatchClient``, ``HGMatch.count`` / ``apply_mutations``,
``MutationBatch``, ``save_native`` / ``load_native`` and the dataset
generators.
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time
from statistics import median
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import HGMatch
from repro.errors import ReproError, ServiceBusy
from repro.hypergraph.io import load_native, save_native
from repro.service.client import MatchClient

from e2e_inputs import Inputs, instance_graph
from e2e_measure import (
    Daemon,
    host_speed,
    percentile,
    samples_beyond,
    tree_cpu_seconds,
    tree_peak_rss_mb,
)

#: Set-ups per run; ``setup_s`` is their median (one set-up is a single
#: sample of interpreter start, fork and page-cache luck).
SETUP_REPEATS = 5
#: The timed phase is sized for this window on the reference host.
TIMED_WINDOW_S = (12.0, 30.0)
#: Rounds of svc_mutate that count as one "pass" for the per-pass rates.
ROUNDS_PER_BLOCK = 20
#: Give up on a run whose system is clearly gone rather than time out
#: operation by operation.
MAX_FAILURES = 50
#: A percentile wants ten samples beyond it: 200 in all for a p95, 20
#: for a median.  Every timed phase collects at least ``MIN_SAMPLES``.
MIN_SAMPLES = 200
MEDIAN_SAMPLES = 20
#: A single client's traffic is cut into segments about this long, each
#: bracketed by host-speed readings (~5 ms each, so ~3 % of the phase).
SEGMENT_S = 0.15
CLIENT_TIMEOUT_S = 60.0
SHARDS = 2


@dataclasses.dataclass
class Reply:
    """One answered query, as the caller saw it."""

    embeddings: int
    cached: bool = False
    #: Seconds the server says it spent (service workloads only).
    elapsed: Optional[float] = None


class Tally:
    """Operations attempted / failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []
        self._lock = threading.Lock()

    def record(self, ok: bool, reason: str = "") -> bool:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.reasons) < 8:
                    self.reasons.append(reason)
        return ok

    @property
    def hopeless(self) -> bool:
        return self.failed >= MAX_FAILURES


# ----------------------------------------------------------------------
# Systems
# ----------------------------------------------------------------------


class InProcessSystem:
    """``HGMatch(load_native(FILE)).count(q)`` in the runner itself; with
    ``executor="processes"`` the engine's persistent 2-shard pool."""

    def __init__(self, executor: Optional[str] = None) -> None:
        self.executor = executor
        self.engine: Optional[HGMatch] = None

    @property
    def root_pid(self) -> int:
        return os.getpid()

    def start(self, graph_path: str, work: str) -> None:
        self.engine = HGMatch(load_native(graph_path))

    def query(self, query) -> Reply:
        if self.executor is None:
            return Reply(self.engine.count(query))
        return Reply(
            self.engine.count(query, executor=self.executor, shards=SHARDS)
        )

    def mutate(self, batch) -> int:
        return self.engine.apply_mutations(batch).version

    def stop(self) -> None:
        engine, self.engine = self.engine, None
        if engine is not None:
            engine.close()


class ServiceSystem:
    """A ``serve-match`` daemon child asked through ``MatchClient``."""

    def __init__(self, daemon_args: Sequence[str] = (), journal: bool = False) -> None:
        self.daemon_args = list(daemon_args)
        self.journal = journal
        self.daemon: Optional[Daemon] = None
        self.client: Optional[MatchClient] = None
        self.journal_dir: Optional[str] = None
        self._starts = 0

    @property
    def root_pid(self) -> int:
        return self.daemon.pid

    def start(self, graph_path: str, work: str) -> None:
        args = list(self.daemon_args)
        if self.journal:
            self._starts += 1  # a fresh journal per set-up: no recovery
            self.journal_dir = os.path.join(work, f"journal-{self._starts}")
            args += [
                "--journal-dir", self.journal_dir,
                "--journal-fsync", "always",
            ]
        self.daemon = Daemon(graph_path, work, args)
        self.client = MatchClient(*self.daemon.address, timeout=CLIENT_TIMEOUT_S)

    def query(self, query) -> Reply:
        outcome = self.client.query(query)
        return Reply(outcome.embeddings, outcome.cached, outcome.elapsed)

    def mutate(self, batch) -> int:
        return self.client.mutate(batch).version

    def stop(self) -> None:
        daemon, self.daemon = self.daemon, None
        if daemon is not None:
            daemon.stop()


@dataclasses.dataclass(frozen=True)
class WorkloadDef:
    """How a workload's system is built (``scale -> system``) and how
    many closed-loop clients ask it.  Why each exists is recorded in
    ``BENCHMARK.json`` and README.md."""

    make_system: Callable[[object], object]
    clients: int = 1


WORKLOAD_DEFS: Dict[str, WorkloadDef] = {
    "enum_seq": WorkloadDef(lambda scale: InProcessSystem()),
    "enum_shards": WorkloadDef(lambda scale: InProcessSystem("processes")),
    # All defaults at full scale: 2 shards, a 128-entry cache.
    "svc_point": WorkloadDef(lambda scale: ServiceSystem(scale.point_daemon_args)),
    # The pool is re-asked every pass: the workload is about cold
    # execution under concurrency.
    "svc_conc": WorkloadDef(
        lambda scale: ServiceSystem(["--cache-capacity", "0"]), clients=2
    ),
    "svc_mutate": WorkloadDef(lambda scale: ServiceSystem(journal=True)),
}


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------


@dataclasses.dataclass
class QuerySample:
    seconds: float
    embeddings: int
    cached: bool
    #: Server-reported seconds, where a server answered.
    elapsed: Optional[float]


@dataclasses.dataclass
class Segment:
    """A stretch of traffic between two host-speed readings.

    Scaled, everything timed inside it is multiplied by ``speed`` (the
    mean of the two readings), which turns seconds on this host, now,
    into seconds on the reference host undisturbed — README, "Host
    speed"."""

    wall: float
    speed: float
    samples: List[QuerySample]
    #: Caller-visible seconds of each correct commit.
    commits: List[float]


@dataclasses.dataclass
class Pass:
    """One sweep of the query set (on svc_mutate, one block of rounds)."""

    segments: List[Segment]
    #: CPU seconds of the system-under-test tree over the pass.
    cpu: float

    @property
    def samples(self) -> List[QuerySample]:
        return [s for segment in self.segments for s in segment.samples]

    @property
    def commits(self) -> List[float]:
        return [c for segment in self.segments for c in segment.commits]

    def wall(self, scaled: bool = False) -> float:
        return sum(
            segment.wall * (segment.speed if scaled else 1.0)
            for segment in self.segments
        )

    def cpu_s(self, scaled: bool) -> float:
        return self.cpu * self.wall(scaled) / self.wall()

    def query_ms(self, scaled: bool) -> List[float]:
        return [
            s.seconds * (segment.speed if scaled else 1.0) * 1e3
            for segment in self.segments for s in segment.samples
        ]

    def commit_ms(self, scaled: bool) -> List[float]:
        return [
            c * (segment.speed if scaled else 1.0) * 1e3
            for segment in self.segments for c in segment.commits
        ]


class Run:
    """State of one workload run: the system, the tally, the samples."""

    def __init__(self, inputs: Inputs, work: str, min_samples: int = MIN_SAMPLES) -> None:
        self.inputs = inputs
        self.work = work
        #: The timed phase goes on until it holds this many query
        #: samples (commits, on svc_mutate), however long that takes.
        self.min_samples = min_samples
        self.definition = WORKLOAD_DEFS[inputs.workload]
        self.system = self.definition.make_system(inputs.scale)
        self.tally = Tally()
        self.passes: List[Pass] = []
        #: One segment per set-up; ``wall`` is the set-up time.
        self.setups: List[Segment] = []
        self.busy_refusals = 0
        self.graph_path = os.path.join(work, "graph.hg")
        # The open segment: where ask/commit put their samples
        # (list.append is atomic: svc_conc's two clients share them).
        self._samples: List[QuerySample] = []
        self._commits: List[float] = []
        self._segments: List[Segment] = []
        self._speed = 1.0
        self._opened = 0.0

    # -- segments ---------------------------------------------------------

    def _open(self, speed: float) -> None:
        self._speed = speed
        self._samples, self._commits = [], []
        self._opened = time.perf_counter()

    def _cut(self) -> None:
        """Close the open segment with a host-speed reading and open
        the next one with the same reading."""
        wall = time.perf_counter() - self._opened
        speed = host_speed()
        self._segments.append(
            Segment(wall, (self._speed + speed) / 2, self._samples, self._commits)
        )
        self._open(speed)

    def _maybe_cut(self) -> None:
        if time.perf_counter() - self._opened >= SEGMENT_S:
            self._cut()

    # -- set-up -----------------------------------------------------------

    def set_up(self, repeats: int = SETUP_REPEATS) -> None:
        """Input generation + store build + daemon/pool spawn, up to and
        including one warm-up request (the first request lazily spawns
        the shard pool; users pay it once).  Done ``repeats`` times; the
        last system is the one measured."""
        # The *last* query: a sweep starts at the first, so by the time
        # it comes round again the cache (where there is one) has long
        # evicted it and no reply of a sweep is a hit.
        warm_query, warm_count = self.inputs.queries[-1]
        self._segments = []
        for attempt in range(repeats):
            if attempt:
                self.system.stop()
            self._open(host_speed())
            graph, _ = instance_graph(self.inputs.spec, self.inputs.seed)
            save_native(graph, self.graph_path)
            self.system.start(self.graph_path, self.work)
            reply = self.system.query(warm_query)
            self._cut()
            self.tally.record(
                reply.embeddings == warm_count,
                f"warm-up request counted {reply.embeddings}, "
                f"oracle {warm_count}",
            )
        self.setups, self._segments = self._segments, []

    # -- one operation ----------------------------------------------------

    def query(self, query) -> Reply:
        return self.system.query(query)

    def ask(self, query, expected: int, want_cached: Optional[bool]) -> None:
        started = time.perf_counter()
        try:
            reply = self.query(query)
        except (ReproError, OSError) as exc:
            self.busy_refusals += isinstance(exc, ServiceBusy)
            self.tally.record(False, f"query raised {exc!r}")
            return
        seconds = time.perf_counter() - started
        if reply.embeddings != expected:
            self.tally.record(
                False, f"counted {reply.embeddings}, oracle {expected}"
            )
        elif want_cached is not None and reply.cached != want_cached:
            self.tally.record(
                False, f"cached={reply.cached}, expected {want_cached}"
            )
        else:
            self.tally.record(True)
            self._samples.append(QuerySample(
                seconds, reply.embeddings, reply.cached, reply.elapsed
            ))

    def commit(self, batch, expected_version: int) -> None:
        started = time.perf_counter()
        try:
            version = self.system.mutate(batch)
        except (ReproError, OSError) as exc:
            self.tally.record(False, f"mutate raised {exc!r}")
            return
        seconds = time.perf_counter() - started
        if self.tally.record(
            version == expected_version,
            f"commit landed at version {version}, expected {expected_version}",
        ):
            self._commits.append(seconds)

    # -- traffic shapes ---------------------------------------------------

    def sweep(self) -> None:
        """One pass: every query once, by one closed-loop client or by
        two that take the queries alternately and never wait for each
        other.  No reply may come from the cache: the sets are either
        larger than it or it is off.

        One client cuts a segment whenever ``SEGMENT_S`` have passed.
        Two are never stopped for a reading: their pass is one segment."""
        clients = self.definition.clients

        def client(index: int) -> None:
            for query, expected in self.inputs.queries[index::clients]:
                if self.tally.hopeless:
                    return
                self.ask(query, expected, False)
                if clients == 1:
                    self._maybe_cut()

        if clients == 1:
            client(0)
            return
        threads = [
            threading.Thread(target=client, args=(index,))
            for index in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def mutate_rounds(self, rounds: range) -> None:
        """One block of svc_mutate: per round, commit a batch, then ask
        every hot query three times — the first ask after a commit must
        miss the cache, the next two must hit it."""
        for index in rounds:
            self.commit(self.inputs.batches[index], index + 1)
            for repeat in range(3):
                for query, expected in zip(
                    self.inputs.hot, self.inputs.post_commit[index]
                ):
                    self.ask(query, expected, repeat > 0)
            self._maybe_cut()

    # -- timed phase ------------------------------------------------------

    def measured_pass(self, traffic: Callable[[], None]) -> Pass:
        """Run ``traffic`` as one pass of segments, with the CPU of the
        system-under-test tree read before and after."""
        root = self.system.root_pid
        self._segments = []  # drops what an unmeasured warm-up pass left
        self._open(host_speed())
        cpu = tree_cpu_seconds(root)
        traffic()
        cpu = tree_cpu_seconds(root) - cpu
        self._cut()
        measured = Pass(self._segments, cpu)
        self.passes.append(measured)
        return measured

    def timed_phase(self, seconds: float) -> dict:
        """Whole passes until ``seconds`` have gone by (to the nearest
        pass) and ``min_samples`` are in."""
        started = time.perf_counter()
        if not self.inputs.batches:
            self.sweep()  # warm-up pass: caches, memo, pool
            started = time.perf_counter()
            while not self.tally.hopeless:
                self.measured_pass(self.sweep)
                elapsed = time.perf_counter() - started
                collected = sum(len(p.samples) for p in self.passes)
                if (
                    collected >= self.min_samples
                    and elapsed + elapsed / len(self.passes) / 2 >= seconds
                ):
                    break
        else:
            rounds = len(self.inputs.batches)
            for first in range(0, rounds, ROUNDS_PER_BLOCK):
                if self.tally.hopeless or (
                    time.perf_counter() - started >= seconds
                    and first >= self.min_samples
                ):
                    break
                block = range(first, min(first + ROUNDS_PER_BLOCK, rounds))
                self.measured_pass(lambda: self.mutate_rounds(block))
        return {
            "timed_s": time.perf_counter() - started,
            "rss_mb": tree_peak_rss_mb(self.system.root_pid),
        }

    # -- results ----------------------------------------------------------

    def query_groups(self, scaled: bool, size: int) -> List[List[float]]:
        """Query times in ms, by groups of whole consecutive passes that
        hold at least ``size`` samples each (the tail joins the last
        group): what a percentile is taken over."""
        groups: List[List[float]] = [[]]
        for p in self.passes:
            if len(groups[-1]) >= size:
                groups.append([])
            groups[-1] += p.query_ms(scaled)
        if len(groups) > 1 and len(groups[-1]) < size:
            tail = groups.pop()
            groups[-1] += tail
        return groups

    def figures(self, scaled: bool) -> Dict[str, Tuple[float, str]]:
        """The timing metrics, in seconds of this host as the caller's
        clock read them or (``scaled``) in seconds of the reference
        host: every segment multiplied by the host's speed while it ran.

        Percentiles are taken over groups of whole passes large enough
        to leave ten samples beyond them — 20 for a median (any single
        pass), 200 for a p95 (on the ``Q_heavy`` workloads the whole
        timed phase) — and rates and CPU per pass; the run reports the
        median over groups or passes: the phase holds as many passes as
        fit ``--seconds``, so totals do not compare between runs, and a
        stretch the host disturbed should not own the figure."""
        passes = [p for p in self.passes if p.samples]
        commit_ms = [ms for p in passes for ms in p.commit_ms(scaled)]
        values: Dict[str, Tuple[float, str]] = {}
        if self.setups:
            values["setup_s"] = (
                median(s.wall * (s.speed if scaled else 1.0) for s in self.setups),
                "s",
            )
        if passes:
            for name, q, size in (
                ("query_ms_p50", 50, MEDIAN_SAMPLES),
                ("query_ms_p95", 95, MIN_SAMPLES),
            ):
                groups = self.query_groups(scaled, size)
                values[name] = (median(percentile(g, q) for g in groups), "ms")
            values["queries_per_s"] = (
                median(len(p.samples) / p.wall(scaled) for p in passes), "1/s"
            )
            values["embeddings_per_s"] = (
                median(
                    sum(s.embeddings for s in p.samples) / p.wall(scaled)
                    for p in passes
                ),
                "1/s",
            )
        if commit_ms:  # svc_mutate only
            values["mutate_ms_p50"] = (percentile(commit_ms, 50), "ms")
            values["mutate_ms_p95"] = (percentile(commit_ms, 95), "ms")
        if passes:
            values["sut_cpu_s"] = (median(p.cpu_s(scaled) for p in passes), "s")
        return values

    def metrics(self, phase: dict) -> Tuple[Dict[str, Tuple[float, str]], dict]:
        values = self.figures(scaled=True)
        values["peak_rss_mb"] = (phase["rss_mb"], "MB")
        values["failed_ratio"] = (
            self.tally.failed / max(1, self.tally.attempted), "ratio"
        )
        passes = [p for p in self.passes if p.samples]
        queries = sum(len(p.samples) for p in passes)
        commits = sum(len(p.commits) for p in passes)
        # The smallest group a p95 was taken over.
        group = min(len(g) for g in self.query_groups(False, MIN_SAMPLES))
        detail = {
            "unscaled": {
                name: value
                for name, (value, _) in self.figures(scaled=False).items()
            },
            "passes": len(passes),
            "timed_s": phase["timed_s"],
            "query_samples": queries,
            "query_group_min": group,
            "query_samples_beyond_p95": samples_beyond(group, 95),
            "mutate_samples": commits,
            "mutate_samples_beyond_p95": samples_beyond(commits, 95),
            "setup_s": [s.wall for s in self.setups],
            "pass_wall_s": [p.wall() for p in passes],
            "pass_cpu_s": [p.cpu for p in passes],
            "pass_host_speed": [p.wall(True) / p.wall() for p in passes],
            "segments": sum(len(p.segments) for p in passes),
            "failures": list(self.tally.reasons),
            "warnings": [],
        }
        if self.inputs.scale.name != "full":
            return values, detail
        low, high = TIMED_WINDOW_S
        if not low <= phase["timed_s"] <= high:
            detail["warnings"].append(
                f"sizing: timed phase took {phase['timed_s']:.1f} s, outside "
                f"the {low:.0f}-{high:.0f} s window the workload is sized for"
            )
        for what, count in (("query", group), ("mutate", commits)):
            if count and samples_beyond(count, 95) < 10:
                detail["warnings"].append(
                    f"sizing: a {what} p95 was taken over {count} samples, "
                    f"which leaves {samples_beyond(count, 95)} beyond it "
                    "(ten wanted)"
                )
        return values, detail


def run_workload(
    inputs: Inputs,
    seconds: float,
    work: str,
    smoke: bool = False,
) -> Tuple[Dict[str, Tuple[float, str]], dict, Tally]:
    """Set up, run the timed phase, tear down; returns
    ``(metrics, detail, tally)``."""
    run = Run(inputs, work, min_samples=1 if smoke else MIN_SAMPLES)
    try:
        run.set_up(1 if smoke else SETUP_REPEATS)
        phase = run.timed_phase(seconds)
        values, detail = run.metrics(phase)
    finally:
        run.system.stop()
    return values, detail, run.tally
