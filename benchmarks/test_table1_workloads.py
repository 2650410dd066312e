"""Table I: the workload suite."""

from repro.experiments import tables
from repro.workloads.catalog import workload_names


def test_table1_workloads(report):
    rows = tables.table1()
    report(
        "Table I — workloads (synthetic analogues, DESIGN.md §1)",
        "14 server workloads: NodeApp, PHPWiki, DaCapo, BenchBase, "
        "Renaissance, 4 Google production traces",
        tables.format_table1(rows),
    )
    assert len(rows) == 14
    assert [r["workload"] for r in rows] == workload_names()
    assert all(r["description"] for r in rows)
    # The Google-trace analogues carry the largest complex-branch budgets.
    by_name = {r["workload"]: r for r in rows}
    assert by_name["Charlie"]["complex_sites"] > by_name["Kafka"]["complex_sites"]
