"""Fig 15: breakdown of LLBP predictions."""

from repro.experiments import fig15


def test_fig15_effectiveness(report):
    data = fig15.run()
    report(
        "Figure 15 — LLBP prediction breakdown (% of conditional predictions)",
        "provides 14.8%; overrides 77% of those; 6.8% of overrides bad; "
        "59% redundant",
        fig15.format_rows(data),
    )
    mean = data["rows"][-1]

    # LLBP targets the hard minority: it provides for a modest share.
    assert 3.0 < mean["provided_pct"] < 40.0
    # Most provided predictions override (same-or-longer history).
    assert mean["override_rate_pct"] > 50.0
    # Overrides are mostly correct...
    assert mean["bad_share_pct"] < 20.0
    # ...and a large share is redundant (the paper's storage-efficiency
    # observation).
    assert mean["redundant_share_pct"] > 40.0
    # Good overrides outnumber bad ones — the net win of Fig 9.
    assert mean["good_pct"] > mean["bad_pct"]
