"""Tier-1 smoke test of the end-to-end benchmark (a few seconds).

Checks the benchmark's own arithmetic (percentiles, span self time),
that inputs are a function of the seed, that ``run.py`` prints exactly
the metrics and workloads ``BENCHMARK.json`` names, that all five
workloads pass at tiny scale, and that a wrong oracle count fails the
run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)

import e2e_inputs  # noqa: E402
from e2e_measure import percentile, samples_beyond, span_self_times  # noqa: E402


def run_py(*args):
    result = subprocess.run(
        [sys.executable, RUN, *args], capture_output=True, text=True,
        timeout=120,
    )
    return result.returncode, result.stdout.splitlines(), result.stderr


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as stream:
        return json.load(stream)


def test_percentile_is_nearest_rank():
    samples = list(range(1, 201))  # 1..200
    assert percentile(samples, 50) == 100
    assert percentile(samples, 95) == 190
    assert percentile([7.0], 95) == 7.0
    assert percentile([3, 1, 2], 100) == 3


def test_ten_samples_beyond_rule():
    # p95 of 200 samples leaves exactly ten beyond it; 199 leave nine.
    assert samples_beyond(200, 95) == 10
    assert samples_beyond(199, 95) == 9
    # ... which is why percentiles are taken over the whole timed
    # phase, never over one 36-query pass.
    assert samples_beyond(36, 95) == 1
    assert samples_beyond(0, 95) == 0


def test_percentile_groups_hold_two_hundred_samples():
    from e2e_workloads import Pass, QuerySample, Run, Segment

    def groups(passes, per_pass):
        run = Run.__new__(Run)
        sample = QuerySample(0.002, 1, False, None)
        segment = Segment(1.0, 0.5, [sample] * per_pass, [])
        run.passes = [Pass([segment], 1.0)] * passes
        return run.query_groups

    # For a p95 seven Q_heavy passes are one group, for a median seven;
    # a short tail joins the last group.
    assert [len(g) for g in groups(7, 36)(False, 200)] == [252]
    assert [len(g) for g in groups(7, 36)(False, 20)] == [36] * 7
    assert [len(g) for g in groups(3, 150)(False, 200)] == [450]
    assert [len(g) for g in groups(3, 600)(False, 200)] == [600, 600, 600]
    # Scaled: milliseconds times the segment's host speed.
    assert groups(1, 1)(True, 20) == [[1.0]]
    assert groups(1, 1)(False, 20) == [[2.0]]


def test_span_self_time_subtracts_children_once():
    spans = [
        {"name": "query", "start": 0.0, "end": 10.0, "parent": None, "query": 0},
        {"name": "plan", "start": 1.0, "end": 3.0, "parent": 0, "query": 0},
        # Overlapping siblings cover 4..8 once, not 4..7 plus 5..8.
        {"name": "a", "start": 4.0, "end": 7.0, "parent": 0, "query": 0},
        {"name": "b", "start": 5.0, "end": 8.0, "parent": 0, "query": 0},
        {"name": "leaf", "start": 5.0, "end": 6.0, "parent": 2, "query": 0},
    ]
    assert span_self_times(spans) == [4.0, 2.0, 2.0, 3.0, 1.0]


def test_inputs_are_a_function_of_the_seed():
    scale = e2e_inputs.SMOKE
    for kind in ("dense", "wide"):
        base = e2e_inputs.build_base(scale, kind)
        assert base.digest == e2e_inputs.build_base(scale, kind).digest
        oracle = e2e_inputs.compute_oracle(base)
        for workload, graph in e2e_inputs.WORKLOAD_GRAPH.items():
            if graph != kind:
                continue
            first = e2e_inputs.build_inputs(5, workload, base, oracle)
            again = e2e_inputs.build_inputs(5, workload, base, oracle)
            other = e2e_inputs.build_inputs(6, workload, base, oracle)
            assert first.digest == again.digest
            assert first.digest != other.digest
            assert native(first.graph) != native(other.graph)
            # Isomorphic instances: the oracle counts do not move.
            assert [c for _, c in first.queries] == [c for _, c in other.queries]


def native(graph):
    return e2e_inputs.native_text(graph)


def metric_lines(lines, workload):
    names = []
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == workload:
            names.append(parts[1])
    return names


def test_smoke_pass_of_all_five_workloads(contract):
    code, lines, stderr = run_py("--smoke", "--seconds", "0.2")
    assert code == 0, (lines, stderr)
    summary = json.loads(lines[-1])
    assert summary["correct"] is True and summary["claim"] is None
    workloads = [workload["name"] for workload in contract["workloads"]]
    assert list(summary["failed_ratio"]) == workloads == list(e2e_inputs.WORKLOADS)
    assert set(summary["failed_ratio"].values()) == {0.0}
    end_to_end = [metric["name"] for metric in contract["end_to_end"]]
    for workload in workloads:
        printed = metric_lines(lines, workload)
        # Commit latency exists where commits happen, and nowhere else.
        commits = [name for name in printed if name.startswith("mutate_ms_")]
        assert commits == (
            ["mutate_ms_p50", "mutate_ms_p95"] if workload == "svc_mutate" else []
        )
        assert [name for name in printed if name not in commits] == (
            end_to_end + ["failed_ratio"]
        )


def test_driver_result_line_and_layer_names(contract):
    code, lines, stderr = run_py(
        "--workload", "svc_mutate", "--smoke", "--seed", "4",
        "--seconds", "0.2", "--trace", "1",
    )
    assert code == 0, (lines, stderr)
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    per_layer = {metric["name"]: metric["unit"] for metric in contract["per_layer"]}
    assert metric_lines(lines, "svc_mutate") == list(per_layer)
    assert {
        name: value["unit"] for name, value in result["metrics"].items()
    } == per_layer
    assert all(
        isinstance(value["value"], (int, float))
        for value in result["metrics"].values()
    ), result["metrics"]
    # Layers on svc_mutate's path are measured; the engine's and the
    # sharded executor's are not on it and print as null.
    printed = {
        parts[1]: parts[2] for parts in map(str.split, lines)
        if len(parts) == 4 and parts[0] == "svc_mutate"
    }
    assert printed["journal.append_ms_p50"] != "null"
    assert printed["mutate.barrier_ms_p50"] != "null"
    assert printed["candidates.probes"] == printed["shard.cpu_s_sum"] == "null"
    # One miss then two hits per hot query per commit.
    assert result["metrics"]["cache.hit_ratio"]["value"] == pytest.approx(2 / 3)


def test_wrong_expected_count_fails_the_run(tmp_path):
    path = str(tmp_path / "expected.json")
    payload = e2e_inputs.write_expected(e2e_inputs.SMOKE, path)
    payload["dense"]["heavy"][0][1] += 1
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(payload, stream)
    code, lines, _ = run_py(
        "--workload", "enum_seq", "--smoke", "--seconds", "0.2",
        "--expected", path,
    )
    assert code != 0
    result = json.loads(lines[-1])
    assert result["correct"] is False and result["failed"] > 0
    ratio = [line.split() for line in lines if " failed_ratio " in line]
    assert float(ratio[0][2]) > 0
