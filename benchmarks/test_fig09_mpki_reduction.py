"""Fig 9: the headline result — LLBP's MPKI reduction over 64K TSL."""

from repro.experiments import fig09


def test_fig09_mpki_reduction(report):
    rows = fig09.run()
    report(
        "Figure 9 — branch MPKI reduction over 64K TSL",
        "LLBP 0.5-25.9% (avg 8.9%); LLBP-0Lat avg 9.9%; 512K TSL avg 27.3%",
        fig09.format_rows(rows),
    )
    mean = rows[-1]

    # Shape: LLBP wins on average, and the equally-sized (but
    # impractical) 512K TSL wins by more.
    assert mean["LLBP"] > 0.0
    assert mean["512K TSL"] > mean["LLBP"]
    # LLBP's prefetching keeps the timed design near the 0-latency ideal.
    assert mean["LLBP"] > 0.5 * mean["LLBP-0Lat"]
