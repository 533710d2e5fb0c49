"""Append a ``benchmarks/e2e/run.py --out`` result to the perf trajectory.

    python benchmarks/e2e/run.py --out /tmp/e2e.json
    python tools/bench_trajectory.py /tmp/e2e.json --label "PR 12: one kernel"

Writes one JSON line per run to ``BENCH_trajectory.jsonl`` (repo root):
the commit the run recorded (``--commit`` overrides it, e.g. for a run
of a not-yet-committed tree), seed, seconds, host, and per workload the
end-to-end metric values — the file every perf claim reports against.
"""

from __future__ import annotations

import argparse
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("result", help="file written by run.py --out (all workloads)")
    parser.add_argument("--label", required=True, help="what this row measures")
    parser.add_argument("--commit", help="override the commit the run recorded")
    parser.add_argument("--trajectory", default=os.path.join(ROOT, "BENCH_trajectory.jsonl"))
    args = parser.parse_args(argv)
    with open(args.result, "r", encoding="utf-8") as stream:
        runs = [run for run in json.load(stream)["runs"] if not run["trace"]]
    with open(args.trajectory, "a", encoding="utf-8") as stream:
        for run in runs:
            host = run["host"]
            row = {
                "commit": args.commit or host["commit"] or "unknown",
                "label": args.label, "seed": run["seed"], "seconds": run["seconds"],
                "scale": run["scale"], "nproc": host["nproc"], "python": host["python"],
                "workloads": {
                    name: {m: v["value"] for m, v in document["metrics"].items()}
                    for name, document in run["workloads"].items()
                },
            }
            stream.write(json.dumps(row, sort_keys=True) + "\n")
    print(f"appended {len(runs)} row(s) to {args.trajectory}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
