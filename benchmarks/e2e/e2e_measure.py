"""Measuring tools of the end-to-end benchmark: percentiles, spans,
process-tree CPU and memory, and the ``serve-match`` child process."""

from __future__ import annotations

import contextlib
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from statistics import median
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
#: Scratch space inside the checkout (the benchmark may write nowhere
#: else); one sub-directory per run, removed on every exit path.
WORK_ROOT = os.path.join(HERE, ".work")


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``q`` % of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly beyond the nearest-rank
    ``q``-th percentile."""
    return count - max(1, math.ceil(q / 100.0 * count)) if count else 0


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------

#: Milliseconds one spin takes on the reference host when nothing
#: disturbs it.  This is the unit's definition, not a tuning value: a
#: scaled second is the time in which the reference host gets through
#: 1000 / 1.5 spins.  It cannot be learnt from inside a run — a slow
#: spell of the host can outlast one.
REFERENCE_SPIN_MS = 1.5


def _spin() -> float:
    started = time.perf_counter()
    total = 0
    for value in range(30_000):
        total += value * value % 7
    return time.perf_counter() - started


def host_speed() -> float:
    """How fast this host runs Python right now, relative to the
    reference host undisturbed (1.0; lower is slower): the median of
    three short fixed spins, ~5 ms in all."""
    return REFERENCE_SPIN_MS / (median([_spin() for _ in range(3)]) * 1e3)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


class Tracer:
    """In-memory span recorder.

    A span is ``(name, start, end, parent, query id)``; spans are kept
    in memory and written out with ``--out``.  Layers that run a
    hundred thousand times per pass (Algorithm 4 / 5 calls) are clocked
    into plain accumulators by their caller instead — a span each would
    cost more than the call it brackets.
    """

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, query_id: Optional[int] = None) -> Iterator[dict]:
        parent = self._stack[-1] if self._stack else None
        if query_id is None and parent is not None:
            query_id = self.spans[parent]["query"]
        record = {
            "name": name, "start": time.perf_counter(), "end": None,
            "parent": parent, "query": query_id,
        }
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def compact(self) -> dict:
        """The spans for ``--out``: one row per span, ``[name index,
        start, end, parent index or null, query id or null]`` with
        times in microseconds since the first span began."""
        names = sorted({span["name"] for span in self.spans})
        index = {name: position for position, name in enumerate(names)}
        origin = self.spans[0]["start"] if self.spans else 0.0
        return {
            "names": names,
            "columns": ["name", "start_us", "end_us", "parent", "query"],
            "rows": [
                [
                    index[span["name"]],
                    round((span["start"] - origin) * 1e6),
                    round((span["end"] - origin) * 1e6),
                    span["parent"],
                    span["query"],
                ]
                for span in self.spans
            ],
        }

    def self_seconds_by_name(self) -> Dict[str, float]:
        """Total self time per span name: a span's duration minus the
        part of it its children cover."""
        totals: Dict[str, float] = {}
        for span, self_time in zip(self.spans, span_self_times(self.spans)):
            totals[span["name"]] = totals.get(span["name"], 0.0) + self_time
        return totals


def span_self_times(spans: Sequence[dict]) -> List[float]:
    """Per span: its duration minus the part of that interval its child
    spans cover (overlapping children are not counted twice)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None and span["end"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    result = []
    for index, span in enumerate(spans):
        if span["end"] is None:
            result.append(0.0)
            continue
        covered = 0.0
        cursor = span["start"]
        for start, end in sorted(children.get(index, ())):
            start = max(start, cursor)
            end = min(end, span["end"])
            if end > start:
                covered += end - start
                cursor = end
        result.append(span["end"] - span["start"] - covered)
    return result


# ----------------------------------------------------------------------
# Process trees (/proc)
# ----------------------------------------------------------------------

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        with open(f"/proc/{pid}/stat", "r", encoding="utf-8") as stream:
            text = stream.read()
    except OSError:
        return None
    # The command name may hold spaces and parentheses; fields resume
    # after the *last* closing parenthesis.
    return text[text.rindex(")") + 2:].split()


def process_tree(root: int) -> Dict[int, List[str]]:
    """``root`` and every live descendant of it: pid -> ``stat`` fields."""
    stats: Dict[int, List[str]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None:
                stats[int(entry)] = fields
    tree: Dict[int, List[str]] = {}
    frontier = [root]
    while frontier:
        current = frontier.pop()
        if current in stats:
            tree[current] = stats[current]
        frontier.extend(
            pid for pid, fields in stats.items() if int(fields[1]) == current
        )
    return tree


def tree_cpu_seconds(root: int) -> float:
    """user + sys CPU consumed so far by ``root`` and its live
    descendants (none of the pools measured here reaps workers during
    a timed phase, so a delta over the phase is exact)."""
    ticks = sum(
        int(fields[11]) + int(fields[12])  # utime + stime
        for fields in process_tree(root).values()
    )
    return ticks / _CLOCK_TICKS


def tree_peak_rss_mb(root: int) -> float:
    """Sum of ``VmHWM`` (peak resident set) over the tree, in MB."""
    total_kb = 0
    for pid in process_tree(root):
        try:
            with open(f"/proc/{pid}/status", "r", encoding="utf-8") as stream:
                for line in stream:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------


def scrub_own_env() -> None:
    """Drop the ``REPRO_*`` knobs (index backend, seed, journal
    directory and policy, network timeout) from this process and so
    from every child: they silently change what is measured."""
    for key in list(os.environ):
        if key.startswith("REPRO_"):
            del os.environ[key]


@contextlib.contextmanager
def work_dir() -> Iterator[str]:
    """A fresh scratch directory under the benchmark's own tree."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    path = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)  # only succeeds once the last run left


def stop_process_group(process: subprocess.Popen, grace: float = 5.0) -> None:
    """Stop ``process`` (a session leader) and everything it spawned:
    SIGTERM for a drain, then SIGKILL to the whole group, and wait."""
    if process.poll() is None:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(process.pid, signal.SIGTERM)
        try:
            process.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            pass
    # Workers outlive a daemon that died without draining; the group
    # id stays valid until its last member is gone.
    with contextlib.suppress(ProcessLookupError, PermissionError):
        os.killpg(process.pid, signal.SIGKILL)
    process.wait()


_ADDRESS_RE = re.compile(r"on (127\.0\.0\.1):(\d+)")


class Daemon:
    """One ``python -m repro serve-match FILE.hg`` child.

    Started from the saved ``.hg`` *file*: a daemon started from a
    dataset name holds int labels and answers every wire query (string
    labels) with 0 embeddings.  The port is OS-assigned and read from
    the ready line; the child leads its own session so that
    :meth:`stop` can take the shard workers down with it.
    """

    STARTUP_BUDGET_S = 60.0

    def __init__(self, graph_path: str, work: str, extra_args: Sequence[str] = ()) -> None:
        handle, self.log_path = tempfile.mkstemp(
            prefix="daemon-", suffix=".log", dir=work
        )
        self._log = os.fdopen(handle, "w", encoding="utf-8")
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve-match", graph_path,
                *extra_args,
            ],
            stdout=self._log, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL, env=dict(os.environ, PYTHONPATH=SRC),
            cwd=work,
            start_new_session=True,
        )
        self.address: Optional[Tuple[str, int]] = None
        try:
            self._await_ready()
        except BaseException:
            self.stop()
            raise

    @property
    def pid(self) -> int:
        return self.process.pid

    def read_log(self) -> str:
        with open(self.log_path, "r", encoding="utf-8") as stream:
            return stream.read()

    def _await_ready(self) -> None:
        deadline = time.monotonic() + self.STARTUP_BUDGET_S
        while time.monotonic() < deadline:
            match = _ADDRESS_RE.search(self.read_log())
            if match is not None:
                self.address = (match.group(1), int(match.group(2)))
                return
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(f"serve-match never came up:\n{self.read_log()}")

    def stop(self) -> None:
        stop_process_group(self.process)
        self._log.close()

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
