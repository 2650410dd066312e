"""Fig 3: working-set study (Tomcat): capacity scaling + useful patterns."""

from repro.experiments import fig03


def test_fig03_working_set(report):
    data = fig03.run()
    report(
        "Figure 3 — mispredictions and useful patterns per static branch",
        "top 0.8% of branches ≈ 40% of misses; doublings shave ~4-7% each; "
        "Inf ≈ -35%; ~14 useful patterns/branch avg, top-100 >100",
        fig03.format_rows(data),
    )
    rows = {r["config"]: r for r in data["rows"]}

    # Mispredictions concentrate on the hottest branches.
    assert rows["tsl64"]["top_branch_share"] > 0.15

    # Capacity monotonically reduces misses; each doubling helps some.
    ladder = ["tsl64", "tsl128", "tsl256", "tsl512", "tsl1m", "inf-tsl"]
    misses = [rows[c]["misses_vs_64k"] for c in ladder]
    assert all(b <= a * 1.02 for a, b in zip(misses, misses[1:]))
    assert rows["inf-tsl"]["reduction_vs_64k_pct"] > 15.0

    # Useful-pattern skew: the most-mispredicted branches need more
    # patterns than the average branch.  (The skew is compressed vs the
    # paper's ~7x on synthetic workloads — see EXPERIMENTS.md.)
    assert data["patterns_mean"] >= 2.0
    assert data["patterns_top100_mean"] > 1.3 * data["patterns_mean"]
