"""Table IV — query completion ratio (single-thread, with timeout).

The paper: HGMatch completes 100% of all queries; CFL-H/DAF-H/CECI-H/
RapidMatch-H complete everything on the small datasets but fail
increasingly on the larger/denser ones (83–85% overall).  Reuses the
Exp-2 record grid.
"""

from __future__ import annotations

import pytest

from repro.bench import completion_ratio, format_table, group_records  # noqa: F401
from repro.datasets import SINGLE_THREAD_DATASETS

from conftest import write_report

ENGINES = ("HGMatch", "CFL-H", "DAF-H", "CECI-H", "RapidMatch-H")


@pytest.fixture(scope="module")
def table4_rows(single_thread_records):
    grouped = group_records(single_thread_records)
    rows = []
    for engine in ENGINES:
        row = {"algorithm": engine}
        all_records = []
        for dataset in SINGLE_THREAD_DATASETS:
            records = [
                record
                for (eng, ds, _), group in grouped.items()
                for record in group
                if eng == engine and ds == dataset
            ]
            all_records.extend(records)
            row[dataset] = f"{completion_ratio(records):.0%}"
        row["Total"] = f"{completion_ratio(all_records):.0%}"
        rows.append(row)
    report = format_table(rows, title="Table IV — query completion ratio")
    write_report("table4_completion", report)
    print("\n" + report)
    return rows


def test_table4_hgmatch_completes_everything(table4_rows):
    """The paper's key claim: HGMatch is the only algorithm finishing
    every query within the limit."""
    hgmatch = next(row for row in table4_rows if row["algorithm"] == "HGMatch")
    assert hgmatch["Total"] == "100%"


def test_table4_baselines_fail_somewhere(table4_rows):
    """At reproduction scale the baselines must show incomplete cells,
    mirroring the paper's 83–85% totals."""
    totals = [
        float(row["Total"].rstrip("%"))
        for row in table4_rows
        if row["algorithm"] != "HGMatch"
    ]
    assert any(total < 100.0 for total in totals)


def test_table4_small_datasets_complete(table4_rows):
    """All algorithms finish on the easy contact-network datasets (the
    paper's 100% region; our scaled HC analogue is disproportionately
    hard for match-by-vertex under the scaled timeout)."""
    for row in table4_rows:
        assert row["CH"] == "100%"
        assert row["CP"] == "100%"


def test_bench_completion_aggregation(benchmark, single_thread_records, table4_rows):
    """Time the record aggregation itself (and force the Table IV report
    to be generated under --benchmark-only)."""
    grouped = benchmark(lambda: group_records(single_thread_records))
    assert grouped
