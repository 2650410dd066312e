"""Fig 14: pattern-set count / size sensitivity (LLBP-0Lat, unbucketed)."""

from repro.experiments import fig14


def test_fig14_pattern_sets(report):
    rows = fig14.run()
    report(
        "Figure 14 — contexts x patterns-per-set (capacities / CAPACITY_SCALE)",
        "paper: 16K ctx x 8 pat = 11%; 16 pat +2.6%; 32/64 diminish; "
        "reduction scales with contexts to ~14K (512KiB design point)",
        fig14.format_rows(rows),
    )
    table = {(r["contexts"], r["patterns_per_set"]): r["mpki_reduction_pct"]
             for r in rows}
    contexts = sorted({c for c, _ in table})
    patterns = sorted({p for _, p in table})

    # More contexts helps (or at worst saturates) at fixed set size.
    small, large = contexts[0], contexts[-1]
    assert table[(large, 16)] >= table[(small, 16)] - 1.0

    # Growing the set beyond 16 gives diminishing returns per doubling.
    if 32 in patterns:
        gain_8_to_16 = table[(large, 16)] - table[(large, 8)]
        gain_16_to_32 = table[(large, 32)] - table[(large, 16)]
        assert gain_16_to_32 <= gain_8_to_16 + 1.5

    # Capacity column is consistent with the geometry.
    by_row = {(r["contexts"], r["patterns_per_set"]): r["capacity_kib"]
              for r in rows}
    assert by_row[(large, 16)] == 2 * by_row[(large, 8)]
