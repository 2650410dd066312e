"""Fig 13: CID history source x prefetch distance sensitivity."""

from repro.experiments import fig13


def test_fig13_cid_sensitivity(report):
    rows = fig13.run()
    report(
        "Figure 13 — CID source and prefetch distance D",
        "Uncond peaks at D=4 (8.9%); Call/Ret coarser; All degrades with D",
        fig13.format_rows(rows),
    )
    table = {(r["source"], r["D"]): r["mpki_reduction_pct"] for r in rows}

    # Prefetch distance is what makes timed LLBP work: every source gains
    # from D=4 over D=0 (the paper's key timing observation).
    for source in ("uncond", "callret", "all"):
        if (source, 0) in table and (source, 4) in table:
            assert table[(source, 4)] >= table[(source, 0)] - 0.5
    # The paper's pick works: uncond with D=4 is solidly positive.
    assert table[("uncond", 4)] > 2.0
    # NOTE: the paper's "All degrades with D" finding does NOT reproduce
    # on the synthetic substrate — conditional-branch PC sequences are
    # deterministic enough here that fine-grained contexts stay
    # informative instead of noisy (EXPERIMENTS.md, Fig 13).
