"""Execution counters for the filtering-power experiment (Exp-3, Fig. 9).

The paper instruments three quantities per query:

* **Candidates** — hyperedge candidates produced by Algorithm 4 across
  the whole enumeration,
* **Filtered** — candidates surviving the cheap vertex-count check
  (Observation V.5),
* **Embeddings** — complete, validated embeddings.

:class:`MatchCounters` records those plus a few engine-health metrics
(tasks executed, set-operation work units) that the simulated parallel
executor uses as its cost model.

Work-unit cost models
---------------------
``work_units`` is charged differently per index backend, and the two
models are **not comparable raw** — a run's model is recorded in
:attr:`MatchCounters.work_model` (see :data:`WORK_UNIT_MODELS`):

``"postings"`` (merge backend)
    The paper's faithful Algorithm 4 cost: one unit per posting entry
    scanned by the k-way union/intersection merge loops, plus the
    anchor vertices inspected.  Proportional to the data actually
    merged, which is what the simulated executor charges.

``"mask-ops"`` (bitset and adaptive backends)
    One unit per anchor vertex scanned, per posting mask OR-ed into an
    anchor union (a single unit on an anchor-union memo hit), and per
    candidate in the result cardinality.  The big-int / container ops
    the backend actually performs — typically one to two orders of
    magnitude fewer units than ``"postings"`` for the same query.
    A bitset block that runs batched over the frontier
    (:func:`repro.core.frontier.scan_rows`, chosen per block by
    :func:`~repro.core.frontier.expand_block`) charges that orientation's
    operations instead: one unit per parent bit written into the
    frontier index, per vertex plane a distinct frontier edge is OR-ed
    into, per step plane read when a vertex's planes are derived, and
    per vertex of every live row probed — nothing per candidate.  The
    in-process engine (``count``/``match``/``count_bfs``), its root
    parts on threads or pool workers and the level-synchronous shard
    workers charge it alike; only ``simulated`` still expands one task
    at a time and so charges the per-parent units on every level —
    compare a run's units with runs of the same executor and cut.

Cross-backend comparisons must divide by each run's own model (the
bench harness labels rows via
:func:`repro.bench.reporting.work_model_label`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: ``index backend name -> work_units cost model`` (see module docs).
WORK_UNIT_MODELS = {
    "merge": "postings",
    "bitset": "mask-ops",
    "adaptive": "mask-ops",
}


@dataclass
class MatchCounters:
    """Mutable counters threaded through one matching job."""

    candidates: int = 0
    filtered: int = 0
    embeddings: int = 0
    #: Same funnel restricted to the *final* matching step — the numbers
    #: behind the paper's "97% of filtered results are true embeddings".
    final_candidates: int = 0
    final_filtered: int = 0
    tasks: int = 0
    #: Abstract set-operation work units under the cost model named by
    #: :attr:`work_model` (module docs).  The simulated executor charges
    #: task costs from this.
    work_units: int = 0
    #: Which cost model ``work_units`` was charged under: ``"postings"``,
    #: ``"mask-ops"``, ``""`` (not stamped) or ``"mixed"`` (counters from
    #: runs under different models were merged — the sum is meaningless).
    work_model: str = ""
    #: Peak number of partial embeddings retained at once (scheduler
    #: memory accounting, Exp-5).
    peak_retained: int = 0
    retained: int = field(default=0, repr=False)

    def note_retained(self, delta: int) -> None:
        """Track the running number of live partial embeddings."""
        self.retained += delta
        if self.retained > self.peak_retained:
            self.peak_retained = self.retained

    def note_work_model(self, model: str) -> None:
        """Record the cost model a run charges ``work_units`` under.

        Reusing one counter set across runs with different models turns
        the sum meaningless; as in :meth:`merge`, that is surfaced as
        ``"mixed"`` rather than silently relabelled.
        """
        if not model:
            return
        if not self.work_model:
            self.work_model = model
        elif self.work_model != model:
            self.work_model = "mixed"

    def merge(self, other: "MatchCounters") -> None:
        """Fold another counter set into this one (parallel workers)."""
        self.candidates += other.candidates
        self.filtered += other.filtered
        self.embeddings += other.embeddings
        self.final_candidates += other.final_candidates
        self.final_filtered += other.final_filtered
        self.tasks += other.tasks
        self.work_units += other.work_units
        if other.work_model:
            if not self.work_model:
                self.work_model = other.work_model
            elif self.work_model != other.work_model:
                self.work_model = "mixed"
        self.peak_retained = max(self.peak_retained, other.peak_retained)

    def false_positive_rate(self) -> float:
        """Fraction of vertex-count-surviving candidates that fail full
        validation: ``1 - embeddings / filtered`` (0.0 when nothing was
        filtered)."""
        if self.filtered == 0:
            return 0.0
        return 1.0 - (self.embeddings / self.filtered)

    def final_step_precision(self) -> float:
        """Fraction of final-step vertex-count-surviving candidates that
        are true embeddings (Exp-3's headline 97% number)."""
        if self.final_filtered == 0:
            return 1.0
        return self.embeddings / self.final_filtered

    def as_row(self) -> dict:
        """Dict form for report tables."""
        return {
            "candidates": self.candidates,
            "filtered": self.filtered,
            "embeddings": self.embeddings,
            "final_candidates": self.final_candidates,
            "final_filtered": self.final_filtered,
            "tasks": self.tasks,
            "work_units": self.work_units,
            "work_model": self.work_model,
            "peak_retained": self.peak_retained,
        }
