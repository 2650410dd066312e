"""Fig 2: MPKI of 64K TSL vs the infinite-capacity limits."""

from repro.experiments import fig02


def test_fig02_mpki_limits(report):
    rows = fig02.run()
    reductions = fig02.reductions(rows)
    body = fig02.format_rows(rows) + "\nreductions vs 64K TSL: " + ", ".join(
        f"{k}={v:.1f}%" for k, v in reductions.items()
    )
    report(
        "Figure 2 — TAGE in the limit",
        "64K TSL avg 2.91 MPKI; Inf TSL -36.5%; Inf TAGE captures ~87% of it",
        body,
    )
    mean = rows[-1]
    # Shape: meaningful headroom from unbounded capacity.
    assert reductions["inf-tsl"] > 15.0
    assert reductions["inf-tage"] > 10.0
    # Inf TAGE captures the majority of Inf TSL's opportunity.
    assert reductions["inf-tage_share_of_inf-tsl"] > 40.0
    # Absolute MPKI in a server-like range.
    assert 0.5 < mean["tsl64"] < 15.0
