"""Table III: access latency and energy of LLBP structures."""

import pytest

from repro.experiments import tables


def test_table3_latency_energy(report):
    rows = tables.table3()
    report(
        "Table III — relative access latency and energy (vs 64K TSL)",
        "64K:1.0/2cyc/1.0; 512K:2.55/4/4.58; LLBP:2.68/4/4.44; "
        "CD:0.8/1/0.3; PB:0.62/1/0.25",
        tables.format_table3(rows),
    )
    by_name = {r["component"]: r for r in rows}
    # The model is calibrated to reproduce Table III exactly.
    assert by_name["64KiB TSL"]["rel_energy"] == pytest.approx(1.0)
    assert by_name["512KiB TSL"]["rel_energy"] == pytest.approx(4.58)
    assert by_name["LLBP"]["rel_energy"] == pytest.approx(4.44)
    assert by_name["CD"]["rel_energy"] == pytest.approx(0.30)
    assert by_name["PB (64-entries)"]["rel_energy"] == pytest.approx(0.25)
    assert by_name["64KiB TSL"]["cycles"] == 2
    assert by_name["512KiB TSL"]["cycles"] == 4
    assert by_name["LLBP"]["cycles"] == 4
    assert by_name["CD"]["cycles"] == 1
    assert by_name["PB (64-entries)"]["cycles"] == 1
