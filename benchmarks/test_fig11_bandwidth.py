"""Fig 11: LLBP <-> PB transfer bandwidth vs PB size."""

from repro.experiments import fig11


def test_fig11_bandwidth(report):
    rows = fig11.run()
    report(
        "Figure 11 — pattern-set traffic (bits/instruction)",
        "16-entry PB: 9.9 read + 2.2 write; 64-entry: -19% total; "
        "256-entry: < 8 bits/instr; L1-I miss traffic as yardstick "
        "(synthetic code footprints understate L1-I traffic — see EXPERIMENTS.md)",
        fig11.format_rows(rows),
    )
    by_structure = {r["structure"]: r for r in rows}
    pb16 = by_structure["16-entry PB"]["total_bits_per_instr"]
    pb64 = by_structure["64-entry PB"]["total_bits_per_instr"]
    pb256 = by_structure["256-entry PB"]["total_bits_per_instr"]

    # A bigger PB filters more traffic.
    assert pb16 > pb64 > pb256
    # Writeback traffic is the smaller share (paper: ~20% of reads).
    r64 = by_structure["64-entry PB"]
    assert r64["write_bits_per_instr"] < r64["read_bits_per_instr"]
    # Traffic is bounded — far below one pattern set per instruction.
    assert pb16 < 288
