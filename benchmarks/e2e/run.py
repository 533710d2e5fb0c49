#!/usr/bin/env python3
"""The repo's end-to-end benchmark.

    python benchmarks/e2e/run.py                      # all five workloads
    python benchmarks/e2e/run.py --trace              # per-layer metrics
    python benchmarks/e2e/run.py --workload svc_point --seed 3 \\
        --seconds 16 --trace 0                        # what the driver runs
    python benchmarks/e2e/run.py --check-repeat       # two sets x ten seeds
    python benchmarks/e2e/run.py --write-expected     # re-pin the oracle

Every input comes from ``--seed``; every answer is checked against the
oracle; every metric is printed by name with its unit.  With
``--workload`` the last line of standard output is one JSON object with
exactly ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``.  Without ``--workload`` each
workload runs in a fresh interpreter.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
CONTRACT_PATH = os.path.join(ROOT, "BENCHMARK.json")

if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.stderr.write(
        f"run.py: no program to measure: {SRC}/repro is missing "
        "(run from a checkout of the whole repository)\n"
    )
    raise SystemExit(2)
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import e2e_inputs  # noqa: E402
from e2e_measure import scrub_own_env, stop_process_group, work_dir  # noqa: E402

#: ``--check-repeat`` makes two sets of this many runs per workload.
REPEAT_RUNS = 10
#: End-to-end metrics only svc_mutate has.  ``BENCHMARK.json`` cannot
#: hold them — every metric it lists must come from every workload — so
#: their bounds live here and ``--check-repeat`` checks them too.
SVC_MUTATE_METRICS = (
    {"name": "mutate_ms_p50", "unit": "ms", "better": "lower", "bound": 0.15},
    {"name": "mutate_ms_p95", "unit": "ms", "better": "lower", "bound": 0.25},
)


def load_contract() -> dict:
    with open(CONTRACT_PATH, "r", encoding="utf-8") as stream:
        return json.load(stream)


def host_info() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
    }


# ----------------------------------------------------------------------
# One workload, in this interpreter
# ----------------------------------------------------------------------


def run_single(args) -> int:
    # Imported here: the all-workloads parent never loads the engine.
    from e2e_layers import Ladder
    from e2e_workloads import run_workload

    contract = load_contract()
    scale = e2e_inputs.SMOKE if args.smoke else e2e_inputs.FULL
    prepared = time.perf_counter()
    inputs, pinned = e2e_inputs.prepare(
        args.seed, args.workload, scale, args.expected
    )
    prepare_s = time.perf_counter() - prepared
    with work_dir() as work:
        if args.trace:
            values, detail, tally = Ladder(inputs, work).run()
            wanted = [metric["name"] for metric in contract["per_layer"]]
        else:
            values, detail, tally = run_workload(
                inputs, args.seconds, work, smoke=args.smoke
            )
            wanted = [metric["name"] for metric in contract["end_to_end"]]

    name = args.workload
    for metric, (value, unit) in values.items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{name} {metric} {shown} {unit}")
    if not args.trace:
        print(f"{name} unscaled (this host's own seconds): " + " ".join(
            f"{metric}={value:.6g}"
            for metric, value in detail["unscaled"].items()
        ))
        print(
            f"{name} samples: query={detail['query_samples']} "
            f"(p95 over >= {detail['query_group_min']}, "
            f"{detail['query_samples_beyond_p95']} beyond it) "
            f"mutate={detail['mutate_samples']} "
            f"({detail['mutate_samples_beyond_p95']} beyond p95) "
            f"passes={detail['passes']} setups={len(detail['setup_s'])} "
            f"timed={detail['timed_s']:.2f}s pass_s_median="
            + format(statistics.median(
                wall * speed for wall, speed in
                zip(detail["pass_wall_s"], detail["pass_host_speed"])
            ), ".4f")
            + f" host_speed={statistics.median(detail['pass_host_speed']):.2f}"
        )
        for warning in detail["warnings"]:
            print(f"{name} warning: {warning}")
    for note in detail.get("notes", ()):
        print(f"{name} note: {note}")
    for reason in detail["failures"]:
        print(f"{name} FAILED: {reason}")
    print(
        f"{name} oracle: {'pinned' if pinned else 'recomputed'}; "
        f"inputs digest {inputs.digest[:16]}; prepared in {prepare_s:.2f}s"
    )

    missing = [metric for metric in wanted if values.get(metric, (None,))[0] is None]
    if missing and not args.trace:
        print(f"{name} FAILED: no value for {', '.join(missing)}")
    result = {
        "correct": tally.failed == 0 and not (missing and not args.trace),
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        # The driver's line holds a number for every metric of the
        # contract: a layer that is not on this workload's path did no
        # work for it and reads 0 here (``null`` in the lines above and
        # in ``--out``).
        "metrics": {
            metric: {"value": values[metric][0] or 0, "unit": values[metric][1]}
            for metric in wanted
            if metric in values
        },
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as stream:
            json.dump(
                {
                    "workload": name, "seed": args.seed, "trace": args.trace,
                    "seconds": args.seconds, "scale": scale.name,
                    "digest": inputs.digest, "pinned": pinned,
                    "values": {
                        metric: {"value": value, "unit": unit}
                        for metric, (value, unit) in values.items()
                    },
                    "detail": detail, **result,
                },
                stream,
            )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ----------------------------------------------------------------------
# Children: one fresh interpreter per workload
# ----------------------------------------------------------------------


def spawn_single(workload: str, seed: int, args, trace: int, out: str,
                 echo: bool = True) -> dict:
    """Run one workload in a fresh interpreter; returns its ``--out``
    document (with ``exit_code`` added)."""
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(trace), "--out", out,
    ]
    if args.smoke:
        command.append("--smoke")
    if args.expected:
        command += ["--expected", args.expected]
    # Its own session: Ctrl-C reaches this parent only, which then takes
    # the whole group (runner, daemon, shard workers) down.
    child = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        for line in child.stdout:
            if echo and not line.startswith("{"):
                sys.stdout.write(line)
                sys.stdout.flush()
        child.wait()
    finally:
        stop_process_group(child)
    try:
        with open(out, "r", encoding="utf-8") as stream:
            document = json.load(stream)
    except (OSError, ValueError):
        document = {
            "workload": workload, "correct": False, "attempted": 1,
            "failed": 1, "values": {}, "detail": {"failures": [
                f"runner exited with code {child.returncode} "
                "without a result"
            ]},
        }
    document["exit_code"] = child.returncode
    return document


def run_all(args) -> int:
    contract = load_contract()
    names = [workload["name"] for workload in contract["workloads"]]
    run = {
        "host": host_info(), "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": "smoke" if args.smoke else "full",
        "workloads": {},
    }
    ok = True
    with work_dir() as work:
        for name in names:
            document = spawn_single(
                name, args.seed, args, args.trace,
                os.path.join(work, f"{name}.json"),
            )
            run["workloads"][name] = document
            ok = ok and document["correct"] and document["exit_code"] == 0
    if args.out:
        runs = []
        if os.path.exists(args.out):
            with open(args.out, "r", encoding="utf-8") as stream:
                runs = json.load(stream).get("runs", [])
        runs.append(run)
        with open(args.out, "w", encoding="utf-8") as stream:
            json.dump({"runs": runs, "claim": None}, stream)
            stream.write("\n")
    print(json.dumps({
        "correct": ok,
        "failed_ratio": {
            name: document["failed"] / document["attempted"]
            for name, document in run["workloads"].items()
        },
        "claim": None,
    }))
    return 0 if ok else 1


# ----------------------------------------------------------------------
# --check-repeat: the acceptance procedure for the benchmark itself
# ----------------------------------------------------------------------


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def check_repeat(args) -> int:
    """Two sets of ``REPEAT_RUNS`` runs per workload, every run with
    another seed.  A metric passes when its spread (except set-up's)
    stays within its bound in both sets and the second median is not
    worse than the first by more than the bound."""
    contract = load_contract()
    names = [workload["name"] for workload in contract["workloads"]]
    metrics = {
        name: contract["end_to_end"]
        + (list(SVC_MUTATE_METRICS) if name == "svc_mutate" else [])
        for name in names
    }
    runs = REPEAT_RUNS
    collected = {
        name: [{m["name"]: [] for m in metrics[name]} for _ in range(2)]
        for name in names
    }
    ok = True
    with work_dir() as work:
        for which in range(2):
            for name in names:
                for index in range(runs):
                    seed = args.seed + which * runs + index
                    document = spawn_single(
                        name, seed, args, 0,
                        os.path.join(work, "run.json"), echo=False,
                    )
                    if not document["correct"] or document["exit_code"] != 0:
                        ok = False
                        print(
                            f"set {which + 1} {name} seed {seed}: FAILED "
                            f"{document['detail'].get('failures')}"
                        )
                        continue
                    for metric in metrics[name]:
                        collected[name][which][metric["name"]].append(
                            document["values"][metric["name"]]["value"]
                        )
                print(f"set {which + 1} {name}: {runs} runs done", flush=True)
    print(
        f"{'workload':<12} {'metric':<17} {'median 1':>12} {'median 2':>12} "
        f"{'worse by':>9} {'spread 1':>9} {'spread 2':>9} {'bound':>6}  verdict"
    )
    for name in names:
        for metric in metrics[name]:
            first, second = (
                collected[name][which][metric["name"]] for which in range(2)
            )
            if len(first) < 2 or len(second) < 2:
                ok = False
                print(f"{name:<12} {metric['name']:<17} too few runs")
                continue
            m1, m2 = statistics.median(first), statistics.median(second)
            worse = (m2 - m1) / m1
            if metric["better"] == "higher":
                worse = -worse
            s1, s2 = spread(first), spread(second)
            bound = metric["bound"]
            passed = worse <= bound and (
                metric["name"] == "setup_s" or max(s1, s2) <= bound
            )
            ok = ok and passed
            print(
                f"{name:<12} {metric['name']:<17} {m1:>12.5g} {m2:>12.5g} "
                f"{worse:>+9.3f} {s1:>9.3f} {s2:>9.3f} {bound:>6.2f}  "
                f"{'ok' if passed else 'MISS'}"
            )
    print(json.dumps({"repeatable": ok, "claim": None}))
    return 0 if ok else 1


# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=e2e_inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=e2e_inputs.DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=load_contract()["run_seconds"],
        help="length of the timed phase (default: the contract's "
        "run_seconds, %(default)s)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: the traced run (per-layer metrics) instead of the "
        "end-to-end one",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny inputs, one set-up, one pass (the tier-1 smoke test)",
    )
    parser.add_argument("--out", help="write everything measured as JSON")
    parser.add_argument(
        "--expected", default=e2e_inputs.EXPECTED_PATH,
        help="pinned oracle file (default: expected/seed-11.json)",
    )
    parser.add_argument(
        "--write-expected", action="store_true",
        help="recompute the oracle with the sequential merge engine and "
        "pin it to --expected",
    )
    parser.add_argument(
        "--check-repeat", action="store_true",
        help="two sets of runs over distinct seeds; non-zero exit when a "
        "metric's spread or median drift exceeds its bound",
    )
    args = parser.parse_args(argv)

    scrub_own_env()
    # SIGTERM must unwind the finally blocks that stop daemons and pools.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.write_expected:
        scale = e2e_inputs.SMOKE if args.smoke else e2e_inputs.FULL
        payload = e2e_inputs.write_expected(scale, args.expected)
        print(
            f"pinned {len(payload['dense']['heavy'])} heavy, "
            f"{len(payload['wide']['point'])} point, "
            f"{len(payload['wide']['hot'])} hot queries and "
            f"{len(payload['wide']['post_commit'])} post-commit rounds "
            f"to {args.expected}"
        )
        return 0
    if args.check_repeat:
        return check_repeat(args)
    if args.workload:
        return run_single(args)
    return run_all(args)


if __name__ == "__main__":
    raise SystemExit(main())
