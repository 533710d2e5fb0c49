"""Micro-benchmark: merge vs bitset vs adaptive index backends.

Replays every ``generate_candidates`` call of the Fig. 8 workload
(reproduction-scale query classes q2/q3 on the high-arity datasets where
set algebra dominates) against all three index backends and times the
set algebra in isolation: the call trace — (step plan, partial
embedding, vertex_step_map) triples — is collected once, then each
backend replays the identical trace.  Two timings are taken per mask
backend:

* ``<backend>_seconds`` — the decoded-tuple boundary
  (``generate_candidates``), comparable with the numbers PR 1 recorded;
* ``<backend>_masknative_seconds`` — the mask-native pipeline
  (``generate_candidate_set``, iterated bit-by-bit as the engine's
  expand loop does, no per-step decode).

One more row, ``expand_step``, times a whole expansion step per parent
(Algorithm 4 + Algorithm 5) on the bitset backend with each of the two
validation kernels over the same parents: ``validate_candidates`` (one
candidate at a time) against ``validate_mask`` (the parent's candidate
mask at once).

Results land in ``BENCH_index_backends.json`` at the repo root so later
PRs have a perf trajectory to regress against.  The ``work_model``
labels record which ``work_units`` cost model each backend charges —
raw work units are never comparable across models (see
``repro.core.counters``).

Run standalone (``python benchmarks/bench_index_backends.py``) or via
pytest (``pytest benchmarks/bench_index_backends.py``); the pytest
entry points are the regression gates.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Tuple

from repro import HGMatch
from repro.bench import make_engine, work_model_label, workload
from repro.bench import (
    FIG8_DATASETS as DATASETS,
    FIG8_QUERIES_PER_SETTING as QUERIES_PER_SETTING,
    FIG8_SETTINGS as SETTINGS,
)
from repro.core.candidates import (
    generate_candidate_set,
    generate_candidates,
    vertex_step_map,
    vertex_step_masks,
)
from repro.core.validation import validate_candidate_set, validate_candidates
from repro.datasets import load_dataset

# The Fig. 8 trace (shared with bench_sharding via
# repro.bench.fig8) is restricted to datasets and query classes whose
# partitions are large enough that posting-list algebra — not per-call
# overhead — dominates: the regime the backends differ in.  q4 is
# excluded: its enumeration is tens of thousands of tiny probes whose
# fixed per-call cost swamps the algebra on both backends.  The trace
# totals ~100ms of merge-side work so ratios are stable across runs.
REPEATS = 5

#: merge first: it is the baseline every regression gate divides by.
BACKENDS = ("merge", "bitset", "adaptive")
MASK_BACKENDS = ("bitset", "adaptive")

#: Minimum speedup of a whole expansion step (Algorithm 4 + 5) from
#: validating a parent's candidate mask at once.
EXPAND_STEP_GATE = 1.3

RESULT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_index_backends.json",
)

Trace = List[Tuple[object, Tuple[int, ...], Dict[int, set]]]


def collect_trace(engine: HGMatch, query) -> Trace:
    """Every (step plan, partial, vmap) probe of the enumeration tree."""
    data = engine.data
    plan = engine.plan(query)
    calls: Trace = []
    stack: List[Tuple[int, ...]] = [()]
    while stack:
        matched = stack.pop()
        step_plan = plan.steps[len(matched)]
        calls.append((step_plan, matched, vertex_step_map(data, matched)))
        for extended in engine.expand(plan, matched):
            if len(extended) < plan.num_steps:
                stack.append(extended)
    return calls


def replay(engine: HGMatch, trace: Trace) -> Tuple[float, List[Tuple[int, ...]]]:
    """Best-of-``REPEATS`` wall time to run the whole trace through the
    decoded-tuple boundary; returns the candidate tuples of the last run
    for cross-backend verification.  No anchor memo: this measures the
    raw per-call algebra (the engine-level memo is a separate effect)."""
    data = engine.data
    partitions = {
        id(step_plan): engine.store.partition(step_plan.signature)
        for step_plan, _, _ in trace
    }
    best = float("inf")
    outputs: List[Tuple[int, ...]] = []
    for _ in range(REPEATS):
        outputs = []
        started = time.perf_counter()
        for step_plan, matched, vmap in trace:
            outputs.append(
                generate_candidates(
                    data, partitions[id(step_plan)], step_plan, matched, vmap
                )
            )
        best = min(best, time.perf_counter() - started)
    return best, outputs


def replay_masknative(engine: HGMatch, trace: Trace) -> float:
    """Best-of-``REPEATS`` wall time for the mask-native pipeline: the
    per-step cost of Algorithm 4 up to a ready :class:`CandidateSet`,
    with no per-step decode — the representation stays a bitmask /
    chunk map / tuple.

    This is the number comparable with ``<backend>_seconds`` (and with
    PR 1's recorded ``bitset_seconds_total``), which measured the same
    algebra *plus* the decode into an edge-id tuple.  The decode is not
    hidden downstream: in the engine the candidate set is consumed by
    ``HGMatch.expand``'s inline bit scan during validation, which costs
    the same as iterating the old decoded tuple did (measured equal on
    this trace), so the decode's list/tuple materialisation is work
    genuinely removed from the per-step path, not work displaced."""
    data = engine.data
    partitions = {
        id(step_plan): engine.store.partition(step_plan.signature)
        for step_plan, _, _ in trace
    }
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        for step_plan, matched, vmap in trace:
            generate_candidate_set(
                data, partitions[id(step_plan)], step_plan, matched, vmap
            )
        best = min(best, time.perf_counter() - started)
    return best


def replay_expand_step(
    engine: HGMatch, trace: Trace, kernel
) -> Tuple[float, List[Tuple[int, ...]]]:
    """Best-of-``REPEATS`` wall time of a whole expansion step per parent
    — Algorithm 4, then Algorithm 5 through ``kernel`` — with the
    survivors counted the way ``HGMatch.count`` does on the last level
    (``len``; nothing is decoded inside the clock).  Returns the
    survivors of the last run, decoded, for cross-kernel verification."""
    data = engine.data
    parents = [
        (
            step_plan,
            engine.store.partition(step_plan.signature),
            matched,
            vmap,
            vertex_step_masks(data, matched),
        )
        for step_plan, matched, vmap in trace
    ]
    best = float("inf")
    survivors: list = []
    for _ in range(REPEATS):
        survivors = []
        counted = 0
        started = time.perf_counter()
        for step_plan, partition, matched, vmap, step_masks in parents:
            candidates = generate_candidate_set(
                data, partition, step_plan, matched, vmap
            )
            accepted = kernel(data, step_plan, step_masks, candidates)
            counted += len(accepted)
            survivors.append(accepted)
        best = min(best, time.perf_counter() - started)
    return best, [tuple(accepted) for accepted in survivors]


def run_benchmark() -> dict:
    """Time all backends over the workload; returns the JSON summary."""
    rows = []
    expand_step = {"parents": 0, "per_candidate_seconds": 0.0,
                   "set_algebra_seconds": 0.0}
    total = {backend: 0.0 for backend in BACKENDS}
    masknative_total = {backend: 0.0 for backend in MASK_BACKENDS}
    for dataset in DATASETS:
        data = load_dataset(dataset)
        engines = {
            backend: make_engine(data, index_backend=backend)
            for backend in BACKENDS
        }
        dataset_times = {backend: 0.0 for backend in BACKENDS}
        dataset_masknative = {backend: 0.0 for backend in MASK_BACKENDS}
        calls = 0
        for setting in SETTINGS:
            for query in workload(dataset, setting, QUERIES_PER_SETTING):
                trace = collect_trace(engines["merge"], query)
                calls += len(trace)
                reference = None
                for backend in BACKENDS:
                    seconds, outputs = replay(engines[backend], trace)
                    if reference is None:
                        reference = outputs
                    elif outputs != reference:
                        raise AssertionError(
                            f"{backend} diverged from merge on "
                            f"{dataset}/{setting}"
                        )
                    dataset_times[backend] += seconds
                for backend in MASK_BACKENDS:
                    dataset_masknative[backend] += replay_masknative(
                        engines[backend], trace
                    )
                slow, expected = replay_expand_step(
                    engines["bitset"], trace, validate_candidates
                )
                fast, found = replay_expand_step(
                    engines["bitset"], trace, validate_candidate_set
                )
                if found != expected:
                    raise AssertionError(
                        f"validation kernels diverged on {dataset}/{setting}"
                    )
                expand_step["parents"] += len(trace)
                expand_step["per_candidate_seconds"] += slow
                expand_step["set_algebra_seconds"] += fast
        for backend in BACKENDS:
            total[backend] += dataset_times[backend]
        for backend in MASK_BACKENDS:
            masknative_total[backend] += dataset_masknative[backend]
        row = {
            "dataset": dataset,
            "generate_candidates_calls": calls,
        }
        for backend in BACKENDS:
            row[f"{backend}_seconds"] = round(dataset_times[backend], 6)
        for backend in MASK_BACKENDS:
            row[f"{backend}_speedup"] = round(
                dataset_times["merge"] / max(dataset_times[backend], 1e-12), 3
            )
            row[f"{backend}_masknative_seconds"] = round(
                dataset_masknative[backend], 6
            )
        row["adaptive_vs_bitset"] = round(
            dataset_times["adaptive"] / max(dataset_times["bitset"], 1e-12), 3
        )
        rows.append(row)
    summary = {
        "benchmark": "index_backends",
        "workload": {
            "datasets": list(DATASETS),
            "settings": list(SETTINGS),
            "queries_per_setting": QUERIES_PER_SETTING,
            "repeats": REPEATS,
        },
        "backends": list(BACKENDS),
        "work_models": {
            backend: work_model_label(backend) for backend in BACKENDS
        },
        "rows": rows,
    }
    for backend in BACKENDS:
        summary[f"{backend}_seconds_total"] = round(total[backend], 6)
    for backend in MASK_BACKENDS:
        summary[f"{backend}_speedup_total"] = round(
            total["merge"] / max(total[backend], 1e-12), 3
        )
        summary[f"{backend}_masknative_seconds_total"] = round(
            masknative_total[backend], 6
        )
    summary["expand_step"] = {
        "backend": "bitset",
        "parents": expand_step["parents"],
        "per_candidate_seconds": round(expand_step["per_candidate_seconds"], 6),
        "set_algebra_seconds": round(expand_step["set_algebra_seconds"], 6),
        "speedup": round(
            expand_step["per_candidate_seconds"]
            / max(expand_step["set_algebra_seconds"], 1e-12),
            3,
        ),
    }
    # Back-compat alias: PR 1's summary called the bitset ratio
    # "speedup_total"; keep it so older tooling reads the same key.
    summary["speedup_total"] = summary["bitset_speedup_total"]
    return summary


def write_summary(summary: dict) -> str:
    with open(RESULT_PATH, "w", encoding="utf-8") as stream:
        json.dump(summary, stream, indent=2)
        stream.write("\n")
    return RESULT_PATH


# ----------------------------------------------------------------------
# pytest entry points (the regression gates)
# ----------------------------------------------------------------------
import pytest


@pytest.fixture(scope="module")
def summary():
    result = run_benchmark()
    write_summary(result)
    return result


def test_backends_agree_on_every_call(summary):
    """replay() asserts tuple-level equality; reaching here means the
    whole workload produced byte-identical candidate sets across all
    three backends."""
    assert summary["rows"]


@pytest.mark.parametrize("backend", MASK_BACKENDS)
def test_mask_backends_speedup_at_least_2x(summary, backend):
    """The 2x regression gate, covering every non-merge backend."""
    assert summary[f"{backend}_speedup_total"] >= 2.0, summary


def test_adaptive_within_1p3x_of_bitset(summary):
    """Chunked containers may not cost more than 30% over the dense
    bitmasks on the HB/SB trace (the memory trade-off must stay cheap)."""
    for row in summary["rows"]:
        assert row["adaptive_vs_bitset"] <= 1.3, row


@pytest.mark.parametrize("backend", MASK_BACKENDS)
def test_masknative_beats_decoded_boundary(summary, backend):
    """The mask-native pipeline must beat the decoded-tuple boundary it
    replaced (PR 1 recorded bitset_seconds_total at the decoded
    boundary; the regenerated JSON shows the masknative total beating
    it on the same workload)."""
    assert (
        summary[f"{backend}_masknative_seconds_total"]
        < summary[f"{backend}_seconds_total"]
    ), summary


def test_set_algebra_kernel_speeds_up_the_expansion_step(summary):
    """Algorithm 4 + 5 per parent on bitset: validating the candidate
    mask at once must beat the per-candidate kernel by >= 1.3x on the
    same parents (Algorithm 4's share is common to both sides)."""
    assert summary["expand_step"]["speedup"] >= EXPAND_STEP_GATE, summary


def main() -> int:
    result = run_benchmark()
    path = write_summary(result)
    for row in result["rows"]:
        print(
            f"{row['dataset']}: "
            f"merge={row['merge_seconds']:.4f}s "
            f"bitset={row['bitset_seconds']:.4f}s "
            f"adaptive={row['adaptive_seconds']:.4f}s "
            f"(x{row['bitset_speedup']:.2f}/x{row['adaptive_speedup']:.2f}, "
            f"masknative bitset={row['bitset_masknative_seconds']:.4f}s "
            f"adaptive={row['adaptive_masknative_seconds']:.4f}s, "
            f"{row['generate_candidates_calls']} calls)"
        )
    step = result["expand_step"]
    print(
        f"expand_step (bitset, {step['parents']} parents): "
        f"per-candidate={step['per_candidate_seconds']:.4f}s "
        f"set-algebra={step['set_algebra_seconds']:.4f}s "
        f"(x{step['speedup']:.2f})"
    )
    print(
        f"TOTAL: merge={result['merge_seconds_total']:.4f}s "
        f"bitset={result['bitset_seconds_total']:.4f}s "
        f"adaptive={result['adaptive_seconds_total']:.4f}s "
        f"speedups: bitset x{result['bitset_speedup_total']:.2f} "
        f"adaptive x{result['adaptive_speedup_total']:.2f} -> {path}"
    )
    # Mirror every pytest gate: CI's bench-smoke job runs this main(), so
    # anything only the pytest entry points checked could never fail CI.
    ok = all(
        result[f"{backend}_speedup_total"] >= 2.0
        and result[f"{backend}_masknative_seconds_total"]
        < result[f"{backend}_seconds_total"]
        for backend in MASK_BACKENDS
    ) and all(row["adaptive_vs_bitset"] <= 1.3 for row in result["rows"])
    ok = ok and result["expand_step"]["speedup"] >= EXPAND_STEP_GATE
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
