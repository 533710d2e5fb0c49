"""Scale smoke: one graph of the scale tier's size through a cold start.

Generates a TC-shaped graph (the ``TC`` spec with its vertex and edge
counts scaled together) at 10^5 hyperedges, round-trips it through the
native text format on disk, builds the ``bitset`` store over the loaded
graph and counts one sampled q3 query on it — the path a scale-tier
workload takes before its first query.  Prints one timed line per step
and exits non-zero when a step's result is wrong; the wall-clock bound
is the caller's (``make scale-smoke`` runs it under ``timeout 120``).

    PYTHONPATH=src python benchmarks/scale_smoke.py
"""

from __future__ import annotations

import dataclasses
import os
import random
import sys
import tempfile
import time

from repro import HGMatch
from repro.datasets import build_dataset, dataset_spec
from repro.hypergraph import PartitionedStore
from repro.hypergraph.io import load_native, save_native
from repro.hypergraph.sampling import query_setting, sample_query

#: The one shape this smoke pins: the 120 s bound is set for it.
EDGES = 100_000
#: Seed of the sampled query.
QUERY_SEED = 0


def main() -> int:
    base = dataset_spec("TC")
    spec = dataclasses.replace(
        base,
        num_vertices=round(base.num_vertices * EDGES / base.num_edges),
        num_edges=EDGES,
    )

    def step(name, work):
        started = time.perf_counter()
        value = work()
        print(f"{name}: {time.perf_counter() - started:.2f} s", flush=True)
        return value

    graph = step(
        f"generate TC shape |V|={spec.num_vertices} |E|={spec.num_edges}",
        lambda: build_dataset(spec),
    )
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "graph.hg")
        step("save_native", lambda: save_native(graph, path))
        loaded = step("load_native", lambda: load_native(path))
    if loaded.edges != graph.edges or loaded.num_vertices != graph.num_vertices:
        print("error: the native round trip changed the graph")
        return 1
    store = step(
        "build bitset store",
        lambda: PartitionedStore(loaded, index_backend="bitset"),
    )
    query = sample_query(
        loaded, query_setting("q3"), random.Random(QUERY_SEED)
    )
    engine = HGMatch(loaded, store=store)
    try:
        count = step("count one q3 query", lambda: engine.count(query))
    finally:
        engine.close()
    if count < 1:  # the query was sampled from the graph itself
        print(f"error: a query sampled from the graph has {count} embeddings")
        return 1
    print(f"scale smoke ok: {count} embeddings")
    return 0


if __name__ == "__main__":
    sys.exit(main())
