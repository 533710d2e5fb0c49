"""Benchmark harness: workloads, timed execution, report formatting."""

from .harness import (
    DEFAULT_TIMEOUT,
    QueryRecord,
    average_time,
    completion_ratio,
    group_records,
    make_engine,
    run_baseline,
    run_hgmatch,
    run_with_timeout,
)
from .fig8 import (
    FIG8_DATASETS,
    FIG8_QUERIES_PER_SETTING,
    FIG8_SETTINGS,
    fig8_queries,
    time_pass,
    usable_cores,
)
from .queries import (
    SETTING_NAMES,
    clear_workload_cache,
    full_workload,
    workload,
)
from .reporting import (
    format_series,
    format_table,
    geometric_mean,
    log_bar,
    speedup,
    work_model_label,
)

__all__ = [
    "DEFAULT_TIMEOUT",
    "QueryRecord",
    "run_with_timeout",
    "run_hgmatch",
    "run_baseline",
    "make_engine",
    "average_time",
    "completion_ratio",
    "group_records",
    "workload",
    "full_workload",
    "SETTING_NAMES",
    "clear_workload_cache",
    "FIG8_DATASETS",
    "FIG8_SETTINGS",
    "FIG8_QUERIES_PER_SETTING",
    "fig8_queries",
    "time_pass",
    "usable_cores",
    "format_table",
    "format_series",
    "log_bar",
    "speedup",
    "geometric_mean",
    "work_model_label",
]
