"""Fig 12: access-frequency-weighted energy relative to 64K TSL."""

import pytest

from repro.experiments import fig12


def test_fig12_energy(report):
    rows = fig12.run()
    report(
        "Figure 12 — weighted energy (relative to 64K TSL)",
        "LLBP structures ≈ 0.51-0.57x; LLBP total ≈ 1.53x; 512K TSL ≈ 4.5x",
        fig12.format_rows(rows),
    )
    by_design = {r["design"]: r for r in rows}
    base = by_design["64KiB TSL"]["total_rel"]
    assert base == pytest.approx(1.0)

    llbp64 = by_design["64-Entry PB"]["total_rel"]
    # LLBP adds far less energy than naive 8x scaling.
    assert llbp64 < by_design["512KiB TAGE"]["total_rel"] / 2
    assert 1.1 < llbp64 < 2.5
    # The LLBP-only structures cost a fraction of one TSL access stream.
    structures = (by_design["64-Entry PB"]["CD"]
                  + by_design["64-Entry PB"]["PB"]
                  + by_design["64-Entry PB"]["LLBP"])
    assert 0.2 < structures < 1.2
