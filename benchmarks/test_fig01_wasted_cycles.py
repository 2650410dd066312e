"""Fig 1: execution cycles wasted on conditional mispredictions."""

from repro.experiments import fig01


def test_fig01_wasted_cycles(report):
    rows = fig01.run()
    report(
        "Figure 1 — wasted execution cycles (64K TSL + analytic core)",
        "3.6-20% per workload, 9.2% average (Sapphire Rapids top-down)",
        fig01.format_rows(rows),
    )
    gmean = rows[-1]["wasted_cycles_pct"]
    # Shape: a significant chunk of cycles is lost to mispredictions.
    assert 2.0 < gmean < 30.0
    per_workload = [r["wasted_cycles_pct"] for r in rows[:-1]]
    assert max(per_workload) > min(per_workload)  # workloads differ
