"""Fig 5: patterns per context vs context depth W."""

from repro.experiments import fig05


def test_fig05_context_locality(report):
    rows = fig05.run()
    report(
        "Figure 5 — patterns per (branch, context) vs window depth W",
        "W=0: p50 298 / p95 2384; W=8: 2 / 25; W=32: 1 / 9",
        fig05.format_rows(rows),
    )
    by_window = {r["W"]: r for r in rows}

    # Deeper contexts slice the pattern space: p95 falls monotonically-ish
    # and by a large factor from W=0 to W=32.
    assert by_window[32]["p95"] <= by_window[8]["p95"] <= by_window[0]["p95"]
    assert by_window[0]["p95"] >= 4 * max(1, by_window[32]["p95"])
    # At deep W most contexts need only a handful of patterns — the
    # property the 16-pattern set design rests on.
    assert by_window[32]["p95"] <= 16
    # Context count grows with depth.
    assert by_window[32]["contexts"] >= by_window[2]["contexts"]
