"""Fig 10: speedup over 64K TSL (analytic core model)."""

from repro.experiments import fig10


def test_fig10_speedup(report):
    rows = fig10.run()
    report(
        "Figure 10 — speedup over 64K TSL",
        "LLBP +0.63%, LLBP-0Lat +0.71%, 512K TSL +1.26%, perfect BP +3.6% "
        "(paper notes its core model under-reports the perfect-BP headroom)",
        fig10.format_rows(rows),
    )
    mean = rows[-1]
    # Ordering: baseline < LLBP <= 512K TSL < perfect.
    assert mean["LLBP"] > 1.0
    assert mean["512K TSL"] >= mean["LLBP"]
    assert mean["Perfect BP"] > mean["512K TSL"]
    # Magnitudes stay in the single-digit-percent regime.
    assert mean["Perfect BP"] < 1.5
