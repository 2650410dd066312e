"""Tables I-III: workload suite, core parameters, latency/energy."""

from __future__ import annotations

from typing import Dict, List

from repro.energy.model import table3_rows
from repro.experiments.common import format_table
from repro.sim.core import CoreParams
from repro.workloads.catalog import WORKLOADS


def table1() -> List[Dict[str, object]]:
    """Table I: the workload catalog."""
    rows: List[Dict[str, object]] = []
    for name, spec in WORKLOADS.items():
        rows.append({
            "workload": name,
            "description": spec.description,
            "functions": spec.num_functions,
            "complex_sites": spec.num_complex,
        })
    return rows


def format_table1(rows: List[Dict[str, object]]) -> str:
    columns = list(rows[0].keys()) if rows else []
    return format_table(rows, columns)


def table2() -> List[Dict[str, object]]:
    """Table II: simulated processor parameters."""
    params = CoreParams()
    return [
        {"parameter": "Core", "value": (
            f"{params.frequency_ghz:g}GHz, {params.fetch_width}-way OoO, "
            f"{params.rob_entries} ROB, {params.lq_entries}/{params.sq_entries} LQ/SQ")},
        {"parameter": "Branch Pred", "value": "64KiB TAGE-SC-L (capacity-scaled, DESIGN.md §1)"},
        {"parameter": "BTB", "value": f"{params.btb_entries // 1024}K entry, {params.btb_ways}-way"},
        {"parameter": "Caches", "value": (
            f"{params.l1i_kib}KiB {params.l1i_ways}-way L1-I, "
            f"{params.l1d_kib}KiB {params.l1d_ways}-way L1-D, "
            f"{params.l2_mib}MiB L2, {params.llc_mib}MiB LLC")},
        {"parameter": "Timing model", "value": (
            f"base CPI {params.base_cpi}, "
            f"misprediction penalty {params.mispredict_penalty:g} cycles")},
    ]


def format_table2(rows: List[Dict[str, object]]) -> str:
    return format_table(rows, ["parameter", "value"])


def table3() -> List[Dict[str, object]]:
    """Table III: relative access latency and energy of LLBP structures."""
    rows = []
    for entry in table3_rows():
        rows.append({
            "component": entry.name,
            "rel_latency": entry.relative_latency,
            "cycles": entry.latency_cycles,
            "rel_energy": entry.relative_energy,
        })
    return rows


def format_table3(rows: List[Dict[str, object]]) -> str:
    return format_table(rows, ["component", "rel_latency", "cycles", "rel_energy"])
