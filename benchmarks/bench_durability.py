"""Benchmark: crash-consistent recovery and stale-worker catch-up.

The durability gate.  Two acceptance scenarios, both gated on
bit-identical state across all three index backends:

* **kill -9 recovery** — a ``serve-match`` daemon journalling to disk
  is killed with SIGKILL mid-schedule (after ``k`` of ``n`` committed
  mutation batches, and once *during* a commit).  The journal alone
  must reconstruct the graph of the longest committed prefix — same
  fingerprint as a local mirror that applied the same batches — and a
  restarted daemon on the same directory must serve query counts
  bit-identical to that mirror, then accept the rest of the schedule
  and land on the full-schedule counts;
* **catch-up rejoin** — a four-member socket pool loses a worker, the
  graph mutates while the slot is empty, and the respawned worker
  (rebuilt from spawn-time data, so announcing a stale version) must
  rejoin via the CATCHUP handshake (§2.10) with counts bit-identical
  to a rebuild on the mutated graph.

Recovery and catch-up wall-clock are *recorded* for trend-watching,
not gated — daemon restart cost is dominated by interpreter startup.

Results land in ``BENCH_durability.json`` at the repo root.  Run
standalone (``python benchmarks/bench_durability.py``) or via pytest;
the pytest entry points are the gates.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from typing import List

from repro import HGMatch
from repro.bench import FIG8_DATASETS, fig8_queries, usable_cores
from repro.datasets import load_dataset
from repro.hypergraph import DynamicHypergraph
from repro.hypergraph.journal import MutationJournal
from repro.parallel import spawn_local_cluster
from repro.service import MatchClient, graph_fingerprint
from repro.testing import random_mutation_schedule

BACKENDS = ("merge", "bitset", "adaptive")
NUM_SHARDS = 2
NUM_BATCHES = 6
#: Acked batches before the SIGKILL — the longest committed prefix.
KILL_AFTER = 3
SNAPSHOT_INTERVAL = 2
IO_TIMEOUT = 60.0
STARTUP_BUDGET_S = 60.0
SEED = 0xC4A5

RESULT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_durability.json",
)

_ADDRESS_RE = re.compile(r"on (127\.0\.0\.1):(\d+)")
_RECOVERED_RE = re.compile(r"recovered graph at version (\d+)")


def _wire_form(graph):
    """Round-trip through the native text format: the daemon parses its
    graph from an ``.hg`` file and the client sends queries as native
    text, so the mirror must speak the same (stringified) labels."""
    import io

    from repro.hypergraph.io import dump_native, parse_native

    buffer = io.StringIO()
    dump_native(graph, buffer)
    return parse_native(io.StringIO(buffer.getvalue()))


def _workload():
    """The first Fig. 8 dataset, its first query, and one mutation
    schedule per backend (deterministic, but independent streams)."""
    dataset = FIG8_DATASETS[0]
    query = _wire_form(next(
        query for name, query in fig8_queries() if name == dataset
    ))
    base = _wire_form(load_dataset(dataset))
    schedules = {
        backend: random_mutation_schedule(
            random.Random(SEED + index), base, steps=NUM_BATCHES
        )
        for index, backend in enumerate(BACKENDS)
    }
    return dataset, base, query, schedules


def _mirror_counts(base, schedule, query, backend):
    """Fingerprint + count after every prefix of ``schedule`` — the
    ground truth every recovery must land on exactly."""
    mirror = DynamicHypergraph.from_hypergraph(base)
    states = {}

    def snap(version):
        probe = HGMatch(mirror.to_hypergraph(), index_backend=backend)
        try:
            states[version] = (
                graph_fingerprint(mirror), probe.count(query)
            )
        finally:
            probe.close()

    snap(0)
    for batch in schedule:
        result = mirror.apply(batch)
        snap(result.version)
    return states


class _Daemon:
    """One ``serve-match`` subprocess with a parsed listen address."""

    def __init__(self, dataset, backend, journal_dir):
        self.log = tempfile.NamedTemporaryFile(
            mode="w+", suffix=".log", delete=False
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            path for path in ("src", env.get("PYTHONPATH")) if path
        )
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve-match", dataset,
                "--shards", str(NUM_SHARDS),
                "--index-backend", backend,
                "--journal-dir", journal_dir,
                "--journal-fsync", "always",
                "--snapshot-interval", str(SNAPSHOT_INTERVAL),
                "--duration", "300",
            ],
            stdout=self.log, stderr=subprocess.STDOUT, env=env,
            # Its own session: the shard workers it spawns share its
            # process group, so stop() can reap the ones a kill -9
            # orphans (they are the daemon's children, not ours).
            start_new_session=True,
        )
        self.address = None
        deadline = time.monotonic() + STARTUP_BUDGET_S
        while time.monotonic() < deadline:
            match = _ADDRESS_RE.search(self.read_log())
            if match is not None:
                self.address = (match.group(1), int(match.group(2)))
                break
            if self.process.poll() is not None:
                break
            time.sleep(0.05)
        if self.address is None:
            raise RuntimeError(
                f"serve-match never came up:\n{self.read_log()}"
            )

    def read_log(self) -> str:
        with open(self.log.name, "r", encoding="utf-8") as stream:
            return stream.read()

    def kill9(self) -> None:
        self.process.kill()  # SIGKILL: no drain, no journal close
        self.process.wait(timeout=30)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        # The group id outlives its leader while any worker is alive.
        with contextlib.suppress(ProcessLookupError, PermissionError):
            os.killpg(self.process.pid, signal.SIGKILL)
        os.unlink(self.log.name)


def _bench_kill9(dataset, backend, schedule, query, states, failures,
                 mid_commit=False):
    """Commit ``KILL_AFTER`` batches, SIGKILL the daemon, verify the
    journal holds the longest committed prefix, restart, verify counts
    and finish the schedule."""
    row = {"backend": backend, "mid_commit": mid_commit}
    with tempfile.TemporaryDirectory(prefix="bench-durability-") as root:
        journal_dir = os.path.join(root, "wal")
        daemon = _Daemon(dataset, backend, journal_dir)
        try:
            with MatchClient(*daemon.address, timeout=IO_TIMEOUT) as client:
                before = client.query(query)
                if before.embeddings != states[0][1]:
                    failures.append(
                        f"{backend}: pre-mutation count "
                        f"{before.embeddings} != mirror {states[0][1]}"
                    )
                for batch in schedule[:KILL_AFTER]:
                    client.mutate(batch)
                if mid_commit:
                    # SIGKILL *while* batch KILL_AFTER+1 commits: the
                    # recovered version may be either side of it, but the
                    # state must match the mirror at whichever committed.
                    commit = threading.Thread(
                        target=lambda: _swallow(
                            client.mutate, schedule[KILL_AFTER]
                        ),
                        daemon=True,
                    )
                    commit.start()
                    time.sleep(0.005)
                    daemon.kill9()
                    commit.join(timeout=30)
                else:
                    daemon.kill9()
        finally:
            daemon.stop()

        started = time.perf_counter()
        recovered = MutationJournal(journal_dir).recover()
        row["journal_recover_seconds"] = time.perf_counter() - started
        acceptable = (
            {KILL_AFTER, KILL_AFTER + 1} if mid_commit else {KILL_AFTER}
        )
        if recovered is None or recovered.version not in acceptable:
            got = None if recovered is None else recovered.version
            failures.append(
                f"{backend}: journal recovered version {got}, "
                f"expected one of {sorted(acceptable)}"
            )
            return row
        committed = recovered.version
        row["committed_version"] = committed
        if graph_fingerprint(recovered.graph) != states[committed][0]:
            failures.append(
                f"{backend}: recovered fingerprint diverged from the "
                f"mirror at version {committed}"
            )

        started = time.perf_counter()
        daemon = _Daemon(dataset, backend, journal_dir)
        row["restart_seconds"] = time.perf_counter() - started
        try:
            match = _RECOVERED_RE.search(daemon.read_log())
            if match is None or int(match.group(1)) != committed:
                failures.append(
                    f"{backend}: restarted daemon did not report "
                    f"recovery at version {committed}: "
                    f"{daemon.read_log()!r}"
                )
            with MatchClient(*daemon.address, timeout=IO_TIMEOUT) as client:
                after = client.query(query)
                if after.embeddings != states[committed][1]:
                    failures.append(
                        f"{backend}: post-restart count {after.embeddings} "
                        f"!= mirror {states[committed][1]} at version "
                        f"{committed}"
                    )
                # Finish the schedule against the recovered daemon: it is
                # a full-fidelity continuation, not a read-only archive.
                for batch in schedule[committed:]:
                    outcome = client.mutate(batch)
                if outcome.version != NUM_BATCHES:
                    failures.append(
                        f"{backend}: schedule finished at version "
                        f"{outcome.version}, expected {NUM_BATCHES}"
                    )
                final = client.query(query)
                if final.embeddings != states[NUM_BATCHES][1]:
                    failures.append(
                        f"{backend}: final count {final.embeddings} != "
                        f"mirror {states[NUM_BATCHES][1]}"
                    )
        finally:
            daemon.stop()
    return row


def _swallow(call, *args):
    try:
        call(*args)
    except Exception:
        pass  # the SIGKILL races the ack; either outcome is valid


def _bench_catchup(base, backend, query, failures):
    """Kill a member, mutate, respawn it stale: the CATCHUP handshake
    must level it and counts must match a rebuild exactly."""
    row = {"backend": backend}
    engine = HGMatch(base, index_backend=backend)
    cluster = spawn_local_cluster(
        base, 2 * NUM_SHARDS, index_backend=backend
    )
    try:
        executor = engine.pool(hosts=list(cluster.addresses))
        baseline = engine.count(query)
        if executor.run(engine, query).embeddings != baseline:
            failures.append(
                f"{backend}: four-member pool failed parity before the "
                f"kill"
            )
        cluster.kill_member(0)
        executor.drain(0)
        rng = random.Random(SEED ^ 0x7E57)
        result = None
        for batch in random_mutation_schedule(rng, base, steps=3):
            result = engine.apply_mutations(batch)
        probe = HGMatch(
            engine.data.to_hypergraph(), index_backend=backend
        )
        try:
            oracle = probe.count(query)
        finally:
            probe.close()
        degraded = executor.run(engine, query).embeddings
        if degraded != oracle:
            failures.append(
                f"{backend}: degraded pool returned {degraded}, "
                f"rebuild says {oracle}"
            )
        started = time.perf_counter()
        address = cluster.respawn(0)
        descriptor = executor.admit(address)
        row["catchup_seconds"] = time.perf_counter() - started
        if descriptor.graph_version != result.version:
            failures.append(
                f"{backend}: readmitted worker is at version "
                f"{descriptor.graph_version}, engine at "
                f"{result.version} — catch-up fell short"
            )
        rejoined = executor.run(engine, query).embeddings
        if rejoined != oracle:
            failures.append(
                f"{backend}: rejoined pool returned {rejoined}, "
                f"rebuild says {oracle}"
            )
    finally:
        engine.close()
        cluster.close()
    return row


def run_benchmark() -> dict:
    """Kill, recover and catch up on every backend; returns the JSON
    summary."""
    dataset, base, query, schedules = _workload()
    failures: List[str] = []
    kill_rows = []
    catchup_rows = []
    # The daemon parses its graph from this dump — the same text form
    # the mirror round-tripped through, so labels agree end to end.
    from repro.hypergraph.io import dump_native

    source = tempfile.NamedTemporaryFile(
        mode="w", suffix=".hg", delete=False
    )
    with source:
        dump_native(base, source)
    try:
        for index, backend in enumerate(BACKENDS):
            schedule = schedules[backend]
            states = _mirror_counts(base, schedule, query, backend)
            kill_rows.append(
                _round(_bench_kill9(
                    source.name, backend, schedule, query, states,
                    failures,
                    # One backend exercises SIGKILL *during* a commit.
                    mid_commit=(index == len(BACKENDS) - 1),
                ))
            )
            catchup_rows.append(
                _round(_bench_catchup(base, backend, query, failures))
            )
    finally:
        os.unlink(source.name)
    return {
        "benchmark": "durability",
        "workload": {
            "dataset": dataset,
            "batches": NUM_BATCHES,
            "kill_after": KILL_AFTER,
            "snapshot_interval": SNAPSHOT_INTERVAL,
        },
        "num_shards": NUM_SHARDS,
        "cores": usable_cores(),
        "failures": failures,
        "kill9": kill_rows,
        "catchup": catchup_rows,
    }


def _round(row: dict) -> dict:
    return {
        key: round(value, 6) if isinstance(value, float) else value
        for key, value in row.items()
    }


def write_summary(summary: dict) -> str:
    with open(RESULT_PATH, "w", encoding="utf-8") as stream:
        json.dump(summary, stream, indent=2)
        stream.write("\n")
    return RESULT_PATH


# ----------------------------------------------------------------------
# pytest entry points (the gates)
# ----------------------------------------------------------------------
import pytest


@pytest.fixture(scope="module")
def summary():
    result = run_benchmark()
    write_summary(result)
    return result


def test_kill9_recovery_is_bit_identical_on_every_backend(summary):
    """SIGKILL mid-schedule, recover from the journal alone: the
    fingerprint and query counts must equal the longest committed
    prefix exactly, and the restarted daemon must finish the schedule."""
    assert summary["failures"] == []
    assert [row["backend"] for row in summary["kill9"]] == list(BACKENDS)
    for row in summary["kill9"]:
        assert "committed_version" in row


def test_catchup_rejoin_is_bit_identical_on_every_backend(summary):
    assert [row["backend"] for row in summary["catchup"]] == list(BACKENDS)
    for row in summary["catchup"]:
        assert row["catchup_seconds"] > 0


def main() -> int:
    result = run_benchmark()
    path = write_summary(result)
    for row in result["kill9"]:
        print(
            f"{row['backend']}: committed=v{row.get('committed_version')} "
            f"journal_recover={row.get('journal_recover_seconds', 0):.4f}s "
            f"restart={row.get('restart_seconds', 0):.4f}s"
            f"{' (mid-commit kill)' if row['mid_commit'] else ''}"
        )
    for row in result["catchup"]:
        print(f"{row['backend']}: catchup={row['catchup_seconds']:.4f}s")
    status = "OK" if not result["failures"] else "FAIL"
    print(f"cores={result['cores']} {status} -> {path}")
    for failure in result["failures"]:
        print(f"  {failure}")
    return 0 if not result["failures"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
