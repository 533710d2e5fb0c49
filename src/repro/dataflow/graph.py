"""The dataflow graph: SCAN → EXPAND* → (FILTER*) → SINK (Fig. 5a).

:class:`DataflowGraph` composes operators over an execution plan and
runs them either with the sequential LIFO task loop (one-thread case of
the scheduler) or on the threaded parallel executor.  It is the layer a
hypergraph database would extend with further operators; see the
``Filter``/``Aggregate`` classes in :mod:`repro.dataflow.operators` for
the extensions the paper's Remark sketches.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..core.counters import MatchCounters
from ..core.engine import HGMatch
from ..core.plan import ExecutionPlan
from ..errors import SchedulerError
from ..hypergraph import Hypergraph
from .operators import CountSink, Expand, Filter, Operator, Scan, Sink


class DataflowGraph:
    """A compiled dataflow: a path of operators ending in a sink.

    Build one with :meth:`from_query` (which plans the query) or
    :meth:`from_plan`.  Optional ``filters`` maps a step index to a
    :class:`Filter` applied to partial embeddings right after that
    step's EXPAND.
    """

    def __init__(
        self,
        engine: HGMatch,
        plan: ExecutionPlan,
        sink: Sink,
        filters: "dict[int, Filter] | None" = None,
    ) -> None:
        self.engine = engine
        self.plan = plan
        self.sink = sink
        self.filters = dict(filters or {})
        self.operators: List[Operator] = [Scan()]
        for step in range(1, plan.num_steps):
            self.operators.append(Expand(step))

    @classmethod
    def from_query(
        cls,
        engine: HGMatch,
        query: Hypergraph,
        sink: "Sink | None" = None,
        order: "Sequence[int] | None" = None,
        filters: "dict[int, Filter] | None" = None,
    ) -> "DataflowGraph":
        plan = engine.plan(query, order)
        return cls(engine, plan, sink if sink is not None else CountSink(), filters)

    @classmethod
    def from_plan(
        cls,
        engine: HGMatch,
        plan: ExecutionPlan,
        sink: "Sink | None" = None,
        filters: "dict[int, Filter] | None" = None,
    ) -> "DataflowGraph":
        return cls(engine, plan, sink if sink is not None else CountSink(), filters)

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Render the dataflow path, e.g. ``SCAN -> EXPAND[1] -> SINK``."""
        parts = []
        for step, operator in enumerate(self.operators):
            parts.append(operator.describe())
            if step in self.filters:
                parts.append(self.filters[step].describe())
        parts.append(self.sink.describe())
        return " -> ".join(parts)

    def execute(
        self,
        workers: int = 1,
        counters: "MatchCounters | None" = None,
        time_budget: "float | None" = None,
    ):
        """Run the dataflow and return the sink's result.

        ``workers > 1`` requires a pure SCAN/EXPAND pipeline with a
        count-style sink (sinks with shared mutable state would need
        locking); filtered or collecting dataflows run sequentially.
        """
        if workers > 1:
            if self.filters or not isinstance(self.sink, CountSink):
                raise SchedulerError(
                    "parallel dataflow execution supports count sinks "
                    "without filters; run filtered dataflows sequentially"
                )
            self.sink.count += self.engine.count(
                self.plan.query, order=self.plan.order, workers=workers,
                counters=counters, time_budget=time_budget, executor="threads",
            )
            return self.sink.result()

        self._execute_sequential(counters, time_budget)
        return self.sink.result()

    # ------------------------------------------------------------------
    def _execute_sequential(
        self,
        counters: "MatchCounters | None",
        time_budget: "float | None",
    ) -> None:
        import time as _time

        deadline = None if time_budget is None else _time.monotonic() + time_budget
        num_steps = self.plan.num_steps
        stack: List[Tuple[int, ...]] = [()]
        while stack:
            item = stack.pop()
            depth = len(item)
            if deadline is not None and _time.monotonic() > deadline:
                from ..errors import TimeoutExceeded

                raise TimeoutExceeded(
                    _time.monotonic() - (deadline - time_budget), time_budget
                )
            children = self.operators[depth].apply(
                self.engine, self.plan, item, counters
            )
            if counters is not None:
                counters.tasks += 1
            step_filter = self.filters.get(depth)
            for child in children:
                if step_filter is not None:
                    if not step_filter.apply(self.engine, self.plan, child, counters):
                        continue
                if len(child) == num_steps:
                    self.sink.consume(self.engine, self.plan, child)
                    if counters is not None:
                        counters.embeddings += 1
                else:
                    stack.append(child)


def run_query(
    engine: HGMatch,
    query: Hypergraph,
    sink: "Sink | None" = None,
    workers: int = 1,
) -> object:
    """One-call convenience: build the dataflow for ``query`` and run it."""
    graph = DataflowGraph.from_query(engine, query, sink)
    return graph.execute(workers=workers)
