"""The perf harness's full mode must not lose trajectory sections.

``benchmarks/perf/harness.py`` with no ``--*-only`` flag re-measures the
engine throughput sections and rewrites ``BENCH_engine.json``; every
other section (recorded by the ``--*-only`` modes) and the notes must
survive unchanged, or ``scripts/bench.py`` loses what it gates on.
"""

from __future__ import annotations

import json

from benchmarks.perf import harness

#: The sections a full-mode run writes itself.
REMEASURED = {"meta", "before", "after", "speedup", "array_engine"}


def test_full_run_keeps_every_unmeasured_section(tmp_path, monkeypatch):
    committed = json.loads(harness.DEFAULT_OUTPUT.read_text())
    output = tmp_path / "BENCH_engine.json"
    output.write_text(json.dumps(committed, indent=2) + "\n")

    rates = {key: 1000 for key in harness.FULL_KEYS}
    monkeypatch.setattr(
        harness, "measure", lambda quick=False, jobs=1: {
            "branches_per_sec": dict(rates), "fig09_seconds": 1.0})
    monkeypatch.setattr(
        harness, "measure_array_engine", lambda: {
            "branches_per_sec": {key: 5000 for key in harness.ARRAY_KEYS},
            "bit_identical": True})

    assert harness.main(["--output", str(output)]) == 0

    written = json.loads(output.read_text())
    assert set(written) == set(committed)
    carried = set(committed) - REMEASURED
    assert {"batched_sweep", "distributed_sweep", "new_families",
            "characterization", "notes"} <= carried
    for section in carried:
        assert written[section] == committed[section], section
