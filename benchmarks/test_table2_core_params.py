"""Table II: simulated processor parameters."""

from repro.experiments import tables


def test_table2_core_params(report):
    rows = tables.table2()
    report(
        "Table II — simulated processor parameters",
        "4GHz 6-way OoO, 512 ROB, 248/122 LQ/SQ, 16K-entry BTB, "
        "32KiB L1-I / 48KiB L1-D / 2MiB L2 / 8MiB LLC",
        tables.format_table2(rows),
    )
    text = " ".join(str(r["value"]) for r in rows)
    for expected in ("4GHz", "6-way", "512 ROB", "16K entry",
                     "32KiB", "2MiB L2", "8MiB LLC"):
        assert expected in text
