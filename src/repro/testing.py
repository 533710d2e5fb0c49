"""Test-support helpers shared by the test suite and benchmarks.

Lives inside the installed package (not in a ``conftest.py``) so test
modules can import it unambiguously: with both ``tests/`` and
``benchmarks/`` carrying a ``conftest.py``, a bare ``from conftest
import ...`` resolves to whichever directory pytest put on ``sys.path``
first and breaks collection under some rootdirs.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
from typing import List, Optional, Sequence, Tuple


def make_random_instance(rng: random.Random, max_vertices: int = 16):
    """A (data, query) pair small enough for brute-force comparison.

    The query is a random-walk sub-hypergraph of the data, so at least
    one embedding always exists.  Returns None when sampling fails (the
    random data was too sparse), letting callers skip the trial.
    """
    from .hypergraph.generators import generate_hypergraph
    from .hypergraph.sampling import QuerySetting, sample_query

    data = generate_hypergraph(
        num_vertices=rng.randint(6, max_vertices),
        num_edges=rng.randint(4, 14),
        num_labels=rng.randint(1, 3),
        mean_arity=2.5,
        max_arity=4,
        rng=rng,
    )
    if data.num_edges < 2:
        return None
    setting = QuerySetting("t", rng.randint(2, 3), 2, 12)
    try:
        query = sample_query(data, setting, rng, max_attempts=60)
    except Exception:
        return None
    return data, query


def random_instances(seed: int, count: int, make=None) -> list:
    """``count`` instances of ``make`` (default
    :func:`make_random_instance`) from one seeded stream, failed
    samples skipped."""
    rng = random.Random(seed)
    make = make or make_random_instance
    found = []
    while len(found) < count:
        instance = make(rng)
        if instance is not None:
            found.append(instance)
    return found


def reference_is_valid_expansion(data, step_plan, vmap, candidate_edge) -> bool:
    """Algorithm 5 written out in full: the oracle for the kernel.

    Observation V.5, then Theorem V.2 as a ``Counter`` of ``(label,
    frozenset of incident steps)`` over **every** vertex of the candidate
    against ``step_plan.query_profile`` — no shared-vertex shortcut, no
    label interning, no bitmasks.  ``vmap`` is the ``vertex_step_map`` of
    the partial embedding before adding the candidate.
    """
    from collections import Counter

    edge = data.edge(candidate_edge)
    new_vertices = sum(1 for vertex in edge if vertex not in vmap)
    if len(vmap) + new_vertices != step_plan.expected_num_vertices:
        return False
    profile = Counter(
        (data.label(vertex), frozenset(vmap.get(vertex, ())) | {step_plan.step})
        for vertex in edge
    )
    return profile == step_plan.query_profile


# ---------------------------------------------------------------------------
# Dynamic graphs: the differential mutation oracle
# ---------------------------------------------------------------------------

def make_mutable_instance(rng: random.Random, max_vertices: int = 16):
    """A (data, query, edges) triple for mutation schedules.

    Deliberately a *separate* function from :func:`make_random_instance`
    (whose RNG consumption is pinned by seeded tests): same recipe, but
    the generated graph's edge list rides along as ``(sorted vertex
    tuple, edge label)`` pairs, so schedules can delete real rows and
    re-insert exact duplicates without re-deriving them from the graph.
    Returns None when sampling fails, like the immutable variant.
    """
    instance = make_random_instance(rng, max_vertices=max_vertices)
    if instance is None:
        return None
    data, query = instance
    edges = [
        (tuple(sorted(data.edge(edge_id))), data.edge_label(edge_id))
        for edge_id in range(data.num_edges)
    ]
    return data, query, edges


def random_mutation_schedule(
    rng: random.Random,
    graph,
    steps: int = 5,
    max_inserts: int = 3,
    max_deletes: int = 2,
):
    """A random, guaranteed-valid interleaving of inserts and deletes.

    Simulates the schedule against a scratch
    :class:`~repro.hypergraph.dynamic.DynamicHypergraph` while
    generating it, so every delete names an edge that is live *at that
    point of the schedule* and inserted edges may themselves be deleted
    later.  Inserts draw random vertex subsets (occasionally over
    freshly added vertices); duplicates of live edges are fine — the
    apply path skips them, and the oracle must agree on the skip.
    Returns a list of ``steps`` MutationBatch objects.
    """
    from .hypergraph.dynamic import DynamicHypergraph, MutationBatch

    simulated = DynamicHypergraph.from_hypergraph(graph)
    labelled = simulated.is_edge_labelled
    vertex_labels = sorted(set(simulated.labels))
    edge_labels = sorted(
        {
            simulated.edge_label(edge_id)
            for edge_id in simulated.live_edge_ids()
        },
        key=repr,
    ) if labelled else [None]
    schedule = []
    for _ in range(steps):
        live = list(simulated.live_edge_ids())
        num_deletes = rng.randint(0, min(max_deletes, len(live)))
        deletes = sorted(rng.sample(live, num_deletes))
        add_vertices = (
            [rng.choice(vertex_labels) for _ in range(rng.randint(1, 2))]
            if rng.random() < 0.25
            else []
        )
        total_vertices = simulated.num_vertices + len(add_vertices)
        inserts = []
        for _ in range(rng.randint(0, max_inserts)):
            arity = rng.randint(2, min(4, total_vertices))
            vertices = tuple(sorted(rng.sample(range(total_vertices), arity)))
            label = rng.choice(edge_labels)
            inserts.append(vertices if label is None else (vertices, label))
        batch = MutationBatch(
            inserts=inserts, deletes=deletes, add_vertices=add_vertices
        )
        simulated.apply(batch)
        schedule.append(batch)
    return schedule


def run_mutation_differential(
    data,
    query,
    schedule,
    index_backend: str = "merge",
    executor: "str | None" = None,
    shards: int = 2,
):
    """Drive ``schedule`` incrementally and diff against full rebuilds.

    After every batch the incrementally maintained engine's count is
    compared with a from-scratch engine rebuilt from the mutated
    graph's frozen snapshot (:meth:`DynamicHypergraph.to_hypergraph`) —
    the rebuild *is* the oracle, and "bit-identical" means the counts
    agree at every step, on every backend, under every executor.

    Returns None when the whole schedule agrees, else a ``(step,
    incremental, oracle)`` triple locating the first divergence — the
    shape :func:`shrink_mutation_schedule` bisects on.
    """
    from .core.engine import HGMatch

    engine = HGMatch(data, index_backend=index_backend, shards=shards)
    try:
        for step, batch in enumerate(schedule):
            engine.apply_mutations(batch)
            if executor is None:
                incremental = engine.count(query)
            else:
                incremental = engine.count(
                    query, executor=executor, shards=shards
                )
            oracle_engine = HGMatch(
                engine.data.to_hypergraph(), index_backend=index_backend
            )
            oracle = oracle_engine.count(query)
            if incremental != oracle:
                return (step, incremental, oracle)
        return None
    finally:
        engine.close()


def shrink_mutation_schedule(
    data,
    query,
    schedule,
    index_backend: str = "merge",
    executor: "str | None" = None,
    shards: int = 2,
):
    """The failure shrinker: shortest failing prefix, by bisection.

    Given a schedule that :func:`run_mutation_differential` fails,
    binary-search the shortest prefix that still diverges (divergence
    is monotone in the prefix: the runner checks after *every* step, so
    a failing run at step ``k`` fails for any prefix of length > ``k``).
    Returns ``(prefix, divergence)`` — the minimal reproducer to log
    alongside the seed.
    """
    def fails(prefix):
        return run_mutation_differential(
            data, query, prefix,
            index_backend=index_backend, executor=executor, shards=shards,
        )

    divergence = fails(schedule)
    if divergence is None:
        raise ValueError("schedule does not fail; nothing to shrink")
    low, high = 1, divergence[0] + 1
    best = (list(schedule[:high]), divergence)
    while low < high:
        mid = (low + high) // 2
        result = fails(schedule[:mid])
        if result is None:
            low = mid + 1
        else:
            best = (list(schedule[:mid]), result)
            high = mid
    return best


# ---------------------------------------------------------------------------
# Durability: the crash-point recovery oracle
# ---------------------------------------------------------------------------

def run_crash_recovery_oracle(
    data,
    schedule,
    index_backend: str = "merge",
    snapshot_interval: int = 3,
    query=None,
    directory: "str | None" = None,
):
    """Crash the journal at every byte-level cut point and recover.

    Commits ``schedule`` through a real :class:`~repro.hypergraph
    .journal.MutationJournal`, recording the log's byte length and the
    graph fingerprint after every batch.  Then, for every record
    boundary *and* for cuts inside every record (torn header, torn
    body), materialises the directory a crash at that point would have
    left behind — the log truncated to the cut, plus only the
    snapshots that had been written by then — recovers from it, and
    asserts the recovered graph is bit-identical (fingerprint and,
    when ``query`` is given, embedding count) to the longest committed
    prefix before the cut.

    Returns None when every crash point recovers exactly, else a
    ``(step, got, expected)`` triple — ``step`` is the shortest
    schedule prefix that reproduces the failure, ``got``/``expected``
    describe the divergence — the shape
    :func:`shrink_crash_schedule` bisects on.
    """
    from .core.engine import HGMatch
    from .errors import ReproError
    from .hypergraph.dynamic import DynamicHypergraph
    from .hypergraph.journal import JOURNAL_FILE, MutationJournal
    from .service.service import graph_fingerprint

    owned = directory is None
    if owned:
        directory = tempfile.mkdtemp(prefix="crash-oracle-")
    try:
        committed = os.path.join(directory, "committed")
        journal = MutationJournal(
            committed, fsync="never", snapshot_interval=snapshot_interval
        )
        graph = DynamicHypergraph.from_hypergraph(data)
        journal.attach(graph)
        expected = {0: graph_fingerprint(graph)}
        counts = {}
        if query is not None:
            probe = HGMatch(
                graph.to_hypergraph(), index_backend=index_backend
            )
            try:
                counts[0] = probe.count(query)
            finally:
                probe.close()
        # boundaries[k] = log length after record k; snapshots_at[k] =
        # snapshot versions on disk once record k had been appended.
        # Snapshots are archived aside as they appear: the journal
        # prunes old ones, but a crash *before* the pruning point must
        # still find them.
        log_path = os.path.join(committed, JOURNAL_FILE)
        archive = os.path.join(directory, "snapshots")
        os.makedirs(archive, exist_ok=True)

        def archive_snapshots():
            versions = list(journal.snapshot_versions())
            for version in versions:
                name = os.path.basename(journal.snapshot_path(version))
                kept = os.path.join(archive, name)
                if not os.path.exists(kept):
                    shutil.copy(journal.snapshot_path(version), kept)
            return versions

        boundaries = [os.path.getsize(log_path)]
        snapshots_at = [archive_snapshots()]
        for batch in schedule:
            result = graph.apply(batch)
            journal.append(result.version, batch)
            journal.maybe_snapshot(graph)
            journal.sync()
            expected[result.version] = graph_fingerprint(graph)
            if query is not None:
                probe = HGMatch(
                    graph.to_hypergraph(), index_backend=index_backend
                )
                try:
                    counts[result.version] = probe.count(query)
                finally:
                    probe.close()
            boundaries.append(os.path.getsize(log_path))
            snapshots_at.append(archive_snapshots())
        journal.close()
        with open(log_path, "rb") as stream:
            log_bytes = stream.read()

        def crash_points():
            # Every record boundary, then cuts inside each record:
            # a torn length/checksum header and a torn body.
            for k in range(len(boundaries)):
                yield k, boundaries[k], f"boundary after version {k}"
            for k in range(1, len(boundaries)):
                start, end = boundaries[k - 1], boundaries[k]
                for cut in {start + 4, start + (end - start) // 2, end - 1}:
                    if start < cut < end:
                        yield k, cut, (
                            f"torn record for version {k} "
                            f"(cut at byte {cut})"
                        )

        scratch = os.path.join(directory, "crashed")
        for step, cut, label in crash_points():
            # Longest committed prefix: complete records before the cut.
            k_committed = next(
                k for k in range(len(boundaries) - 1, -1, -1)
                if boundaries[k] <= cut
            )
            if os.path.isdir(scratch):
                shutil.rmtree(scratch)
            os.makedirs(scratch)
            with open(os.path.join(scratch, JOURNAL_FILE), "wb") as stream:
                stream.write(log_bytes[:cut])
            for version in snapshots_at[k_committed]:
                name = os.path.basename(journal.snapshot_path(version))
                shutil.copy(
                    os.path.join(archive, name),
                    os.path.join(scratch, name),
                )
            try:
                recovered = MutationJournal(scratch).recover()
            except ReproError as exc:
                return (step, f"recovery failed at {label}: {exc}",
                        f"version {k_committed}")
            if recovered is None or recovered.version != k_committed:
                got = None if recovered is None else recovered.version
                return (step, f"recovered version {got} at {label}",
                        f"version {k_committed}")
            if graph_fingerprint(recovered.graph) != expected[k_committed]:
                return (step, f"fingerprint diverged at {label}",
                        f"fingerprint of version {k_committed}")
            if query is not None:
                probe = HGMatch(
                    recovered.graph.to_hypergraph(),
                    index_backend=index_backend,
                )
                try:
                    count = probe.count(query)
                finally:
                    probe.close()
                if count != counts[k_committed]:
                    return (step, f"count {count} at {label}",
                            f"count {counts[k_committed]}")
        return None
    finally:
        if owned:
            shutil.rmtree(directory, ignore_errors=True)


def shrink_crash_schedule(
    data,
    schedule,
    index_backend: str = "merge",
    snapshot_interval: int = 3,
    query=None,
):
    """Shrink a schedule failing :func:`run_crash_recovery_oracle`.

    Same prefix bisection as :func:`shrink_mutation_schedule`: the
    oracle exercises every crash point of the prefix it is given, so a
    failure reproducible at ``step`` batches is reproducible for every
    longer prefix.  Returns ``(prefix, divergence)``.
    """
    def fails(prefix):
        return run_crash_recovery_oracle(
            data, prefix,
            index_backend=index_backend,
            snapshot_interval=snapshot_interval,
            query=query,
        )

    divergence = fails(schedule)
    if divergence is None:
        raise ValueError("schedule does not fail; nothing to shrink")
    low, high = 1, max(1, divergence[0])
    best = (list(schedule[:high]), divergence)
    while low < high:
        mid = (low + high) // 2
        result = fails(schedule[:mid])
        if result is None:
            low = mid + 1
        else:
            best = (list(schedule[:mid]), result)
            high = mid
    return best
