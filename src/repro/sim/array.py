"""Array-backed fused simulation engine (``engine="array"``).

The Python engine in :mod:`repro.sim.engine` pays per-branch method
dispatch (predict/train/update_history), per-branch metadata objects
(TageResult/TslResult/LLBPMeta) and per-branch folded-history and
context-register pushes.  This engine removes all three:

* every hash the predictor computes per branch, and every context ID
  LLBP's rolling context register takes, is precomputed once per trace
  into flat integer columns (:mod:`repro.sim.columns`), memoised on the
  trace;
* one specialised ``_sim`` function per predictor *instance* is
  generated, inlining lookup and training into a single loop body with
  bank sizes, masks and saturation bounds baked in as constants and the
  table arrays bound by identity.  Every family's body sits in one loop
  skeleton (:func:`_sim_source`), emitted once: warmup and measured rows
  run through the same lines, and a ``measuring`` flag decides only
  whether a misprediction is also charged to the measured region;
* hot scalar state (use-alt, tick, SC threshold, loop bias, clocks,
  counters) lives in locals for the duration of the run and is written
  back in an epilogue.

The contract is **bit-identity** with the Python engine: same tables
afterwards, same RNG call sequence, same :class:`SimulationResult`
including the insertion order of the per-PC dicts.  The Python engine
remains the oracle; ``tests/sim/test_array.py`` pins the equivalence
across every workload and supported family.  Unsupported predictor
variants are reported by :func:`unsupported_reason`, and running one
raises ``ValueError``: only the Python engine runs them.
"""

from __future__ import annotations

import time
import warnings
from itertools import chain
from typing import Dict, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro import telemetry
from repro.llbp.predictor import LLBPTageScL
from repro.predictors.base import BranchPredictor
from repro.predictors.bimodal import Bimodal
from repro.predictors.bimode import BiMode
from repro.predictors.gshare import GShare
from repro.predictors.infinite import InfiniteTage
from repro.predictors.perceptron import HashedPerceptron
from repro.predictors.perfect import PerfectPredictor
from repro.predictors.tage import Tage
from repro.predictors.tage_sc_l import TageScL
from repro.sim import columns as columns_mod
from repro.sim.results import SimulationResult
from repro.traces.trace import Trace

#: Records converted to Python lists per chunk in the fused loops.  A wide
#: TAGE-SC-L or LLBP row becomes dozens of Python ints, so the chunk stays
#: small: one chunk's ``tolist()`` is well under a MiB however wide the
#: rows, and the wide-row loops run faster than with larger chunks.
_CHUNK = 1 << 8


# -- support matrix ----------------------------------------------------------

def unsupported_reason(predictor: BranchPredictor) -> Optional[str]:
    """Why ``predictor`` cannot run on the array engine (None = it can).

    Exact-type checks on purpose: a subclass may override any method the
    fused code inlines, which would silently diverge from the oracle.
    """
    if type(predictor) in (GShare, Bimodal, BiMode, HashedPerceptron,
                           PerfectPredictor):
        return None
    if type(predictor) is TageScL:
        if type(predictor.tage) not in (Tage, InfiniteTage):
            return (f"TAGE variant {type(predictor.tage).__name__} is not "
                    "fused here")
        return None
    if type(predictor) is LLBPTageScL:
        if 3 * predictor.config.cid_bits > 64:
            return "CIDs too wide for the closed-form CID column"
        return None
    return f"no fused loop for {type(predictor).__name__}"


# -- fused loop body emitters ------------------------------------------------
#
# Each helper appends unindented source lines for one stage of the
# per-conditional-branch body; the compilers below stitch them into one
# body, which _sim_source indents into the chunked trace loop.  The
# bodies are the predictors' own lookup/train methods with metadata
# objects replaced by locals and per-branch hashes replaced by
# ``row[...]`` subscripts (constant where possible).

def _emit_tage_lookup(a, tage) -> None:
    num_tables = tage.config.num_tables
    infinite = type(tage) is InfiniteTage
    a("provider = -1")
    a("alt = -1")
    if infinite:
        # InfiniteTage.lookup: the same hashes probe per-PC-tagged dict
        # tables; the matching [ctr, useful] entries are kept.
        a("p_e = None")
        for t in range(num_tables):
            a(f"e = E{t}.get((row[{t}], row[{num_tables + t}], pc))")
            a("if e is not None:")
            a("    alt = provider")
            a("    alt_e = p_e")
            a(f"    provider = {t}")
            a("    p_e = e")
    else:
        for t in range(num_tables):
            a(f"if TT{t}[row[{t}]] == row[{num_tables + t}]:")
            a("    alt = provider")
            a(f"    provider = {t}")
    a(f"bim_i = (pc >> 2) & {tage.bimodal._mask}")
    a("bim_pred = BIM[bim_i] >= 0")
    a("if provider >= 0:")
    if infinite:
        a("    provider_ctr = ctr = p_e[0]")
    else:
        a("    p_idx = row[provider]")
        a("    CP = T_CTRS[provider]")
        a("    provider_ctr = ctr = CP[p_idx]")
    a("    provider_pred = ctr >= 0")
    a("    provider_weak = ctr == 0 or ctr == -1")
    a("    if alt >= 0:")
    a("        alt_pred = " + ("alt_e[0]" if infinite
                                else "T_CTRS[alt][row[alt]]") + " >= 0")
    a("    else:")
    a("        alt_pred = bim_pred")
    a(f"    if provider_weak and use_alt >= {tage._use_alt_mid}:")
    a("        t_pred = alt_pred")
    a("    else:")
    a("        t_pred = provider_pred")
    a("    provider_valid = True")
    a("else:")
    a("    provider_ctr = 0")
    a("    provider_pred = False")
    a("    provider_weak = False")
    a("    alt_pred = bim_pred")
    a("    t_pred = bim_pred")
    a("    provider_valid = False")


def _emit_sc_lookup(a, sc, num_tables, ctr="provider_ctr",
                    valid="provider_valid") -> None:
    num_sc = len(sc.history_lengths)
    a("pcx = pc >> 2")
    a(f"bias_index = (pcx * 2 + (1 if base_pred else 0)) & {sc._mask}")
    votes = " + ".join(
        f"S{c}[row[{2 * num_tables + c}]]" for c in range(num_sc))
    a(f"total = 2 * BIAS[bias_index] + 1 + 2 * ({votes}) + {num_sc}")
    a(f"if {valid}:")
    a(f"    conf = 2 * {ctr} + 1")
    a("    if conf < 0: conf = -conf")
    a("    total += (conf + 1) * (2 if base_pred else -2)")
    a("else:")
    a("    total += 4 if base_pred else -4")
    a("sc_pred = total >= 0")
    a("abs_total = total if total >= 0 else -total")
    a("sc_use = sc_pred != base_pred and abs_total >= threshold")
    a("pred = sc_pred if sc_use else base_pred")


def _emit_loop_lookup(a, loop) -> None:
    a(f"set_index = pcx & {loop._set_mask}")
    a(f"ltag = (pc >> {loop._tag_shift}) & {loop._tag_mask}")
    a("lset = LOOPTAB[set_index]")
    a("l_valid = False")
    a("l_pred = False")
    a("l_hit = False")
    a("l_way = -1")
    a(f"for way in range({loop.ways}):")
    a("    entry = lset[way]")
    a("    if entry.age > 0 and entry.tag == ltag:")
    a("        l_hit = True")
    a("        l_way = way")
    a("        if entry.confidence == 3 and entry.past_iter > 0:")
    a("            l_valid = True")
    a("            exiting = entry.current_iter + 1 >= entry.past_iter")
    a("            l_pred = (not entry.direction) if exiting else entry.direction")
    a("        break")
    a("if l_valid and withloop >= 0:")
    a("    pred = l_pred")


def _emit_count(a, miss="pred != taken") -> None:
    a(f"if {miss} and measuring:")
    a("    measured_misp += 1")
    a("    per_pc_misp[pc] = misp_get(pc, 0) + 1")


def _emit_loop_train(a, loop) -> None:
    a("if l_valid:")
    a("    if l_pred != base_pred:")
    a("        if l_pred == taken:")
    a(f"            if withloop < {loop._withloop_hi}: withloop += 1")
    a(f"        elif withloop > {loop._withloop_lo}: withloop -= 1")
    a("if l_hit:")
    a("    entry = lset[l_way]")
    a("    if l_valid and l_pred != taken:")
    a("        entry.age = 0")
    a("        entry.confidence = 0")
    a("        entry.current_iter = 0")
    a("    else:")
    a("        if l_valid and entry.age < 255:")
    a("            entry.age = entry.age + 1")
    a("        if taken == entry.direction:")
    a("            entry.current_iter = cur = entry.current_iter + 1")
    a("            if entry.past_iter and cur > entry.past_iter:")
    a("                entry.confidence = 0")
    a("                entry.past_iter = 0")
    a("                entry.current_iter = 0")
    a("        else:")
    a("            observed = entry.current_iter + 1")
    a("            past = entry.past_iter")
    a("            if past == 0:")
    a("                entry.past_iter = observed")
    a("            elif past == observed:")
    a("                if entry.confidence < 3:")
    a("                    entry.confidence = entry.confidence + 1")
    a("            else:")
    a("                entry.past_iter = observed")
    a("                entry.confidence = 0")
    a("            entry.current_iter = 0")
    a("elif base_pred != taken and not taken and loop_chance(1, 4):")
    a("    loop_alloc(pc)")


def _emit_sc_train(a, sc, num_tables) -> None:
    num_sc = len(sc.history_lengths)
    a("final_pred = sc_pred if sc_use else base_pred")
    a("if sc_use:")
    a("    overrides += 1")
    a("    if sc_pred == taken: good_overrides += 1")
    a("if sc_pred != base_pred:")
    a("    if sc_pred == taken:")
    a("        tc -= 1")
    a("        if tc <= -64:")
    a("            tc = 0")
    a("            if threshold > 4: threshold -= 1")
    a("    else:")
    a("        tc += 1")
    a("        if tc >= 64:")
    a("            tc = 0")
    a("            if threshold < 64: threshold += 1")
    a("if final_pred != taken or abs_total < 4 * threshold:")
    a("    v = BIAS[bias_index]")
    a("    if taken:")
    a("        if v < 31: BIAS[bias_index] = v + 1")
    a("    elif v > -32: BIAS[bias_index] = v - 1")
    for c in range(num_sc):
        a(f"    s_i = row[{2 * num_tables + c}]")
        a(f"    v = S{c}[s_i]")
        a("    if taken:")
        a(f"        if v < 31: S{c}[s_i] = v + 1")
        a(f"    elif v > -32: S{c}[s_i] = v - 1")


def _emit_tage_update(a, tage, guarded: bool) -> None:
    """Tage.update inlined; ``guarded`` wraps the provider-counter and
    bimodal updates in ``if not overrode`` (exclusive provider training)."""
    num_tables = tage.config.num_tables
    a("if provider >= 0:")
    a("    if provider_pred != alt_pred:")
    a("        UP = T_USEFUL[provider]")
    a("        if provider_pred == taken:")
    a("            UP[p_idx] = 1")
    a("        else:")
    a("            u = UP[p_idx]")
    a("            if u > 0: UP[p_idx] = u - 1")
    a("        if provider_weak:")
    a(f"            if alt_pred == taken and use_alt < {tage._use_alt_max}:"
      " use_alt += 1")
    a("            elif provider_pred == taken and use_alt > 0: use_alt -= 1")
    g = ""
    if guarded:
        a("    if not overrode:")
        g = "    "
    a(g + "    ctr2 = CP[p_idx]")
    a(g + "    if taken:")
    a(g + f"        if ctr2 < {tage._ctr_hi}: CP[p_idx] = ctr2 + 1")
    a(g + f"    elif ctr2 > {tage._ctr_lo}: CP[p_idx] = ctr2 - 1")
    a(g + "    if provider_weak and alt < 0:")
    a(g + "        v = BIM[bim_i]")
    a(g + "        if taken:")
    a(g + "            if v < 1: BIM[bim_i] = v + 1")
    a(g + "        elif v > -2: BIM[bim_i] = v - 1")
    a("else:")
    if guarded:
        a("    if not overrode:")
    a(g + "    v = BIM[bim_i]")
    a(g + "    if taken:")
    a(g + "        if v < 1: BIM[bim_i] = v + 1")
    a(g + "    elif v > -2: BIM[bim_i] = v - 1")
    a("if t_pred != taken:")
    a(f"    if provider < {num_tables - 1}:")
    a("        start = provider + 1")
    a(f"        if start < {num_tables - 1} and tage_chance(1, 2): start += 1")
    a("        allocated = 0")
    a("        failures = 0")
    a("        t = start")
    a(f"        while t < {num_tables} and allocated"
      f" < {tage.config.max_allocations}:")
    a("            a_idx = row[t]")
    a("            UT = T_USEFUL[t]")
    a("            if UT[a_idx] == 0:")
    a(f"                T_TAGS[t][a_idx] = row[{num_tables} + t]")
    a("                T_CTRS[t][a_idx] = 0 if taken else -1")
    a("                T_VALID[t][a_idx] = True")
    a("                allocated += 1")
    a("                t += 2")
    a("            else:")
    a("                failures += 1")
    a("                t += 1")
    a("        tick += failures - allocated")
    a("        if tick < 0:")
    a("            tick = 0")
    a(f"        elif tick >= {tage.config.tick_threshold}:")
    a("            tick = 0")
    a("            for UT in T_USEFUL:")
    a("                UT[:] = ZEROS")


def _emit_inf_tage_update(a, tage) -> None:
    """InfiniteTage.update inlined: dict entries, allocation that never
    fails, no tick.  A traced predictor's useful events are appended with
    their conditional-branch ordinal ``ord0 + m``."""
    num_tables = tage.config.num_tables
    a("if provider >= 0:")
    a("    if provider_pred != alt_pred:")
    a("        if provider_pred == taken:")
    a("            p_e[1] = 1")
    if tage.trace_useful:
        a("            USEFUL((ord0 + m, pc, (provider, row[provider],"
          f" row[{num_tables} + provider], pc)))")
    a("        elif p_e[1] > 0:")
    a("            p_e[1] = 0")
    a("        if provider_weak:")
    a(f"            if alt_pred == taken and use_alt < {tage._use_alt_max}:"
      " use_alt += 1")
    a("            elif provider_pred == taken and use_alt > 0: use_alt -= 1")
    a("    ctr2 = p_e[0]")
    a("    if taken:")
    a(f"        if ctr2 < {tage._ctr_hi}: p_e[0] = ctr2 + 1")
    a(f"    elif ctr2 > {tage._ctr_lo}: p_e[0] = ctr2 - 1")
    a("    if provider_weak and alt < 0:")
    a("        v = BIM[bim_i]")
    a("        if taken:")
    a("            if v < 1: BIM[bim_i] = v + 1")
    a("        elif v > -2: BIM[bim_i] = v - 1")
    a("else:")
    a("    v = BIM[bim_i]")
    a("    if taken:")
    a("        if v < 1: BIM[bim_i] = v + 1")
    a("    elif v > -2: BIM[bim_i] = v - 1")
    a("if t_pred != taken:")
    a(f"    if provider < {num_tables - 1}:")
    a("        start = provider + 1")
    a(f"        if start < {num_tables - 1} and tage_chance(1, 2): start += 1")
    a("        allocated = 0")
    a("        t = start")
    a(f"        while t < {num_tables} and allocated"
      f" < {tage.config.max_allocations}:")
    a(f"            key = (row[t], row[{num_tables} + t], pc)")
    a("            ET = ETABS[t]")
    a("            if key not in ET:")
    a("                ET[key] = [0 if taken else -1, 0]")
    a("                allocated += 1")
    a("                t += 2")
    a("            else:")
    a("                t += 1")


def _tsl_namespace(tsl: TageScL) -> dict:
    tage, sc, loop = tsl.tage, tsl.sc, tsl.loop
    ns = {
        "tage": tage, "sc": sc, "loop": loop,
        "BIM": tage.bimodal.table, "BIAS": sc.bias_table,
        "LOOPTAB": loop.table,
        "loop_chance": loop._rng.chance, "loop_alloc": loop._allocate,
        "tage_chance": tage._rng.chance,
    }
    if type(tage) is InfiniteTage:
        ns["ETABS"] = tage.entries
        ns["USEFUL"] = tage.useful_events.append
        for t, entries in enumerate(tage.entries):
            ns[f"E{t}"] = entries
    else:
        ns.update({
            "T_CTRS": tage.ctrs, "T_TAGS": tage.tags,
            "T_USEFUL": tage.useful, "T_VALID": tage._valid,
            "ZEROS": [0] * tage._size,
        })
        for t in range(tage.config.num_tables):
            ns[f"TT{t}"] = tage.tags[t]
    for c in range(len(sc.history_lengths)):
        ns[f"S{c}"] = sc.tables[c]
    return ns


_TSL_SCALAR_PREAMBLE = (
    "    use_alt = tage._use_alt",
    "    tick = tage._tick",
    "    threshold = sc.threshold",
    "    tc = sc._tc",
    "    overrides = sc.overrides",
    "    good_overrides = sc.good_overrides",
    "    withloop = loop.withloop",
)

_TSL_SCALAR_EPILOGUE = (
    "    tage._use_alt = use_alt",
    "    tage._tick = tick",
    "    sc.threshold = threshold",
    "    sc._tc = tc",
    "    sc.overrides = overrides",
    "    sc.good_overrides = good_overrides",
    "    loop.withloop = withloop",
)


#: The row variables every conditional-branch loop binds first.
_COND_ROW = (("pc", "pcs"), ("taken", "takens"))


def _sim_source(params, row, body, head=(), tail=(), ordinals=False):
    """Source of ``_sim(<params>, split, per_pc_misp)`` returning
    ``measured_misp``: the one loop skeleton of every fused predictor.

    The indented lines ``head`` come first, then the misprediction
    counter.  Rows ``[0, n)`` of ``pcs`` (the first parameter) then run
    in chunks of ``_CHUNK`` inside ``for measuring, begin, end in
    ((False, 0, split), (True, split, n))``, so warmup and measured rows
    run through the one copy of ``body``, whose unindented lines read the
    ``measuring`` flag only where :func:`_emit_count` counts a
    misprediction.  Each row binds one variable per ``(name, column)``
    pair in ``row``, preceded by its ordinal ``m`` with ``ordinals``;
    ``tail`` precedes the return.
    """
    names = [name for name, _ in row]
    chunks = [f"{column}[lo:hi].tolist()" for _, column in row]
    if ordinals:
        names.insert(0, "m")
        chunks.insert(0, "range(lo, hi)")
    lines = [f"def _sim({params}, split, per_pc_misp):"]
    lines.extend(head)
    lines.extend((
        "    measured_misp = 0",
        "    misp_get = per_pc_misp.get",
        "    n = len(pcs)",
        f"    CH = {_CHUNK}",
        "    for measuring, begin, end in ((False, 0, split),"
        " (True, split, n)):",
        "        for lo in range(begin, end, CH):",
        "            hi = lo + CH",
        "            if hi > end: hi = end",
        f"            for {', '.join(names)} in zip({', '.join(chunks)}):",
    ))
    lines.extend("                " + x for x in body)
    lines.extend(tail)
    lines.append("    return measured_misp")
    return lines


def _nested(a):
    """An appender that writes its lines one block deeper than ``a``."""
    return lambda line: a("    " + line)


def _exec_sim(lines, name: str, namespace: dict):
    """Compile the generated ``_sim`` with ``namespace`` as its globals."""
    exec(compile("\n".join(lines), f"<array-sim-{name}>", "exec"), namespace)
    return namespace["_sim"]


def _compile_tsl(p: TageScL):
    """Generate ``_sim(pcs, takens, cols, split, per_pc_misp)`` for ``p``.

    Inputs are the conditional-branch-only pc/taken columns, the
    precomputed hash matrix and the first measured conditional branch;
    returns ``measured_misp``.  An :class:`InfiniteTage` hashes exactly
    like a ``Tage``, so it reads the same matrix; only its probe, update
    and allocation differ.
    """
    tage, sc, loop = p.tage, p.sc, p.loop
    num_tables = tage.config.num_tables
    infinite = type(tage) is InfiniteTage

    body = []
    a = body.append
    _emit_tage_lookup(a, tage)
    a("base_pred = t_pred")
    _emit_sc_lookup(a, sc, num_tables)
    _emit_loop_lookup(a, loop)
    _emit_count(a)
    _emit_loop_train(a, loop)
    _emit_sc_train(a, sc, num_tables)
    if infinite:
        _emit_inf_tage_update(a, tage)
    else:
        _emit_tage_update(a, tage, guarded=False)

    head, tail = _TSL_SCALAR_PREAMBLE, _TSL_SCALAR_EPILOGUE
    if infinite:
        head += ("    ord0 = tage.updates",)
        tail += ("    tage.updates = ord0 + n",)
    # Only a traced InfiniteTage needs each row's ordinal ``m``.
    lines = _sim_source("pcs, takens, cols", _COND_ROW + (("row", "cols"),),
                        body, head, tail,
                        ordinals=infinite and tage.trace_useful)
    return _exec_sim(lines, "tsl", _tsl_namespace(p))


def _compile_gshare(p):
    """Generate ``_sim(pcs, takens, idx, split, per_pc_misp)`` for one
    table of 2-bit counters: gshare, or bimodal over its PC index."""
    body = []
    a = body.append
    a("v = TBL[i]")
    _emit_count(a, "(v >= 0) != taken")
    a("if taken:")
    a("    if v < 1: TBL[i] = v + 1")
    a("elif v > -2: TBL[i] = v - 1")
    lines = _sim_source("pcs, takens, idx", _COND_ROW + (("i", "idx"),), body)
    return _exec_sim(lines, "gshare", {"TBL": p.table})


def _compile_bimode(p: BiMode):
    """Generate ``_sim(pcs, takens, cols, split, per_pc_misp)`` for bimode.

    ``cols`` holds ``[choice_index, direction_index]`` per conditional
    branch (:func:`repro.sim.columns.bimode_columns`); the body is
    ``BiMode.predict`` + ``train`` with the bank selected into a local.
    """
    body = []
    a = body.append
    a("cv = CHOICE[ci]")
    a("ct = cv >= 0")
    a("B = TB if ct else NB")
    a("v = B[di]")
    _emit_count(a, "(v >= 0) != taken")
    # Choice trains toward the outcome unless it missed but the
    # selected bank covered for it (BiMode.train).
    a("if not (ct != taken and (v >= 0) == taken):")
    a("    if taken:")
    a("        if cv < 1: CHOICE[ci] = cv + 1")
    a("    elif cv > -2: CHOICE[ci] = cv - 1")
    a("if taken:")
    a("    if v < 1: B[di] = v + 1")
    a("elif v > -2: B[di] = v - 1")
    lines = _sim_source("pcs, takens, cols",
                        _COND_ROW + (("ci", "ci_col"), ("di", "di_col")),
                        body, head=("    ci_col = cols[:, 0]",
                                    "    di_col = cols[:, 1]"))
    return _exec_sim(lines, "bimode", {"CHOICE": p.choice,
                                       "TB": p.taken_bank,
                                       "NB": p.nottaken_bank})


def _compile_perceptron(p: HashedPerceptron):
    """Generate ``_sim(pcs, takens, cols, split, per_pc_misp)``.

    ``cols`` holds one table index per column
    (:func:`repro.sim.columns.percep_columns`); the dot product, the
    threshold test and the per-table saturating updates are unrolled
    with the weight lists bound by identity.
    """
    tables = range(p.config.tables)
    theta = p._theta
    wmin, wmax = p._wmin, p._wmax

    body = []
    a = body.append
    a("total = " + " + ".join(f"W{t}[i{t}]" for t in tables))
    _emit_count(a, "(total >= 0) != taken")
    # Threshold training: update on a miss or a weak (|sum|<=theta)
    # hit; +1 steps can only violate the upper clamp, -1 the lower.
    a(f"if (total >= 0) != taken or {-theta} <= total <= {theta}:")
    a("    if taken:")
    for t in tables:
        a(f"        w = W{t}[i{t}] + 1")
        a(f"        if w <= {wmax}: W{t}[i{t}] = w")
    a("    else:")
    for t in tables:
        a(f"        w = W{t}[i{t}] - 1")
        a(f"        if w >= {wmin}: W{t}[i{t}] = w")
    lines = _sim_source("pcs, takens, cols",
                        _COND_ROW + tuple((f"i{t}", f"c{t}") for t in tables),
                        body, head=[f"    c{t} = cols[:, {t}]" for t in tables])
    return _exec_sim(lines, "percep",
                     {f"W{t}": p.tables[t] for t in tables})


#: LLBP's run counters: the fused loop's local, and the attribute or
#: ``counts`` entry its epilogue adds the local to.
_LLBP_COUNTERS = (
    ("pb_hits", "BUF.hits"),
    ("pb_misses", "BUF.misses"),
    ("pf_issued", "PF.issued"),
    ("pf_dmiss", "PF.directory_misses"),
    ("pf_squash", "PF.squashed"),
    ("llbp_provided", "counts['llbp_provided']"),
    ("no_override", "counts['no_override']"),
    ("c_good", "counts['override_good']"),
    ("c_bad", "counts['override_bad']"),
    ("c_both_correct", "counts['override_both_correct']"),
    ("c_both_wrong", "counts['override_both_wrong']"),
    ("pb_miss_ctx", "counts['pb_miss_with_context']"),
)


def _compile_llbp(p: LLBPTageScL):
    """Generate ``_sim(pcs, types, takens, gaps, rows, cids, split,
    per_pc_misp)``.

    Iterates *all* records (the prefetch clock advances per record and
    context-forming branches issue prefetches); ``rows`` yields one
    combined column row per conditional branch — TAGE indices/tags, SC
    indices, then the 16 LLBP slot tags starting at ``slot_base`` — and
    ``cids`` one row ``[cid_at(0), ..., cid_at(D)]`` of the RCR per push,
    the first for its contents before the run (a bare CID when ``D = 0``;
    :func:`repro.sim.columns.cid_columns`).  The register itself is never
    touched: :func:`run_simulation_array` restores it, and counts the
    CCID changes, from the trace afterwards.
    """
    tsl = p.tsl
    tage, sc, loop = tsl.tage, tsl.sc, tsl.loop
    num_tables = tage.config.num_tables
    num_sc = len(sc.history_lengths)
    slot_base = 2 * num_tables + num_sc
    pb_sets = p.buffer.num_sets
    cd_sets = p.directory.num_sets
    exclusive = p.config.exclusive_provider_training
    weak_guard = p.config.weak_override_guard
    timing = p.config.simulate_timing
    ps_hi = (1 << (p.config.counter_bits - 1)) - 1
    ps_lo = -(1 << (p.config.counter_bits - 1))

    distance = p.config.prefetch_distance
    # One local per CID of a push row: cid_at(0) is the CCID, cid_at(D)
    # the prefetch CID; only a squash reads the ones in between.
    if distance:
        cid_names = (["ccid"] + [f"cid{d}" for d in range(1, distance)]
                     + ["pf_cid"])
        take_cids = ", ".join(cid_names) + " = next_cids()"
    else:
        cid_names = ["ccid"]
        take_cids = "ccid = pf_cid = next_cids()"
    # issue() can only be flattened when the directory probe is
    # side-effect free (LRU reorders on lookup) and delivery is
    # deferred (zero latency delivers inline via _deliver).
    inline_issue = (p.prefetcher.latency != 0
                    and p.config.cd_replacement != "lru")

    def emit_issue(a, cid):
        # PrefetchEngine.issue with its buffer-hit fast path hoisted out
        # of the call.  Flattened, the directory probe is a plain
        # membership test (confidence replacement never reorders on
        # lookup) and the arrival append is the only side effect;
        # counters batch into the epilogue.
        a(f"if {cid} not in PB_SETS[{cid} % {pb_sets}]:")
        if inline_issue:
            a(f"    if {cid} in CD_SETS[{cid} % {cd_sets}]:")
            a("        pf_issued += 1")
            a(f"        INFLIGHT.append((now + {p.prefetcher.latency}, {cid}))")
            a("    else:")
            a("        pf_dmiss += 1")
        else:
            a(f"    issue({cid}, now)")

    body = []
    add = body.append
    # LLBPTageScL.advance: clock + prefetch arrivals.
    add("now += gap")
    add("if INFLIGHT and INFLIGHT[0][0] <= now:")
    add("    drain(now)")
    add("if btype == 0:")
    a = _nested(add)
    a("row = next_row()")
    # -- pattern buffer probe (PatternBuffer.get + miss accounting) --
    a(f"pbs = PB_SETS[ccid % {pb_sets}]")
    a("ps = pbs.get(ccid)")
    a("slot = -1")
    a("if ps is None:")
    a("    pb_misses += 1")
    a(f"    if ccid in CD_SETS[ccid % {cd_sets}]:")
    a("        pb_miss_ctx += 1")
    a("else:")
    a("    pb_hits += 1")
    a("    del pbs[ccid]")
    a("    pbs[ccid] = ps")
    # PatternSet.find_longest against the precomputed slot tags —
    # only the valid slots (ps.vdesc) are scanned.
    a("    ps_tags = ps.tags")
    a("    ps_hsl = ps.hslots")
    a("    for i in ps.vdesc:")
    a(f"        if ps_tags[i] == row[{slot_base} + ps_hsl[i]]:")
    a("            slot = i")
    a("            break")
    _emit_tage_lookup(a, tage)
    # -- override arbitration (LLBPTageScL.predict) --
    a("overrode = False")
    a("llbp_rank = 0")
    a("if slot >= 0:")
    a("    ps_ctrs = ps.ctrs")
    a("    llbp_ctr = ps_ctrs[slot]")
    a("    llbp_pred = llbp_ctr >= 0")
    a("    llbp_rank = SRANK[ps_hsl[slot]]")
    a("    llbp_provided += 1")
    a("    overrode = llbp_rank >= provider + 1")
    if weak_guard:
        a("    if overrode and (llbp_ctr == 0 or llbp_ctr == -1)"
          " and provider >= 0 and not provider_weak:")
        a("        overrode = False")
    a("    if not overrode:")
    a("        no_override += 1")
    a("if overrode:")
    a("    base_pred = llbp_pred")
    a("    sc_ctr = llbp_ctr")
    a("    sc_valid = True")
    a("else:")
    a("    base_pred = t_pred")
    a("    sc_ctr = provider_ctr")
    a("    sc_valid = provider_valid")
    _emit_sc_lookup(a, sc, num_tables, ctr="sc_ctr", valid="sc_valid")
    _emit_loop_lookup(a, loop)
    _emit_count(a)
    # -- training (LLBPTageScL.train) --
    a("if slot >= 0:")
    a("    if overrode:")
    a("        if llbp_pred == taken:")
    a("            if t_pred == taken: c_both_correct += 1")
    a("            else: c_good += 1")
    a("        elif t_pred != taken: c_both_wrong += 1")
    a("        else: c_bad += 1")
    # PatternSet.update_counter: under exclusive provider training
    # only the overriding pattern trains, so the block nests inside
    # the `if overrode:` branch above.
    ui = "        " if exclusive else "    "
    a(ui + "c = ps_ctrs[slot]")
    a(ui + "if taken:")
    a(ui + f"    if c < {ps_hi}:")
    a(ui + "        ps_ctrs[slot] = c + 1")
    a(ui + "        ps.dirty = True")
    a(ui + f"elif c > {ps_lo}:")
    a(ui + "    ps_ctrs[slot] = c - 1")
    a(ui + "    ps.dirty = True")
    _emit_loop_train(a, loop)
    _emit_sc_train(a, sc, num_tables)
    _emit_tage_update(a, tage, guarded=exclusive)
    # -- pattern allocation on base (provider) misprediction --
    a("if base_pred != taken:")
    a(f"    llbp_alloc(pc, taken, ccid, ps, row[{slot_base}:],"
      " llbp_rank if overrode else provider + 1, now)")
    if timing:
        # Final misprediction: squash and re-run the prefetch
        # pipeline, re-issuing cid_at(0..D) from the push row.
        a("if pred != taken:")
        a("    pf_squash += len(INFLIGHT)")
        a("    INFLIGHT.clear()")
        for cid in cid_names:
            emit_issue(_nested(a), cid)
    # update_history tail: the push takes the RCR's next CIDs from the
    # column (history folds are never advanced either — the columns
    # already hold their values), then issues the prefetch.
    add("if QUAL[btype]:")
    add("    " + take_cids)
    emit_issue(_nested(add), "pf_cid")

    head = _TSL_SCALAR_PREAMBLE + (
        "    now = P._now",
        "    next_cids = cids.__next__",
        "    " + take_cids,
        "    next_row = rows.__next__",
    ) + tuple(f"    {local} = 0" for local, _ in _LLBP_COUNTERS)
    tail = _TSL_SCALAR_EPILOGUE + (
        "    P._now = now",
        "    counts = P.counts",
    ) + tuple(f"    {target} += {local}" for local, target in _LLBP_COUNTERS)
    lines = _sim_source(
        "pcs, types, takens, gaps, rows, cids",
        (("pc", "pcs"), ("btype", "types"), ("taken", "takens"),
         ("gap", "gaps")),
        body, head, tail)

    namespace = _tsl_namespace(tsl)
    namespace.update({
        "P": p,
        "BUF": p.buffer,
        "PB_SETS": p.buffer._sets,
        "CD_SETS": p.directory._sets,
        "PF": p.prefetcher,
        "issue": p.prefetcher.issue,
        "drain": p.prefetcher.drain,
        "INFLIGHT": p.prefetcher._inflight,
        "llbp_alloc": p._allocate_parts,
        "SRANK": p._slot_rank,
        "QUAL": tuple(p.rcr.qualifies(t) for t in range(8)),
    })
    return _exec_sim(lines, "llbp", namespace)


# -- driver ------------------------------------------------------------------

def _iter_rows(cols: np.ndarray):
    chunk = _CHUNK
    return chain.from_iterable(
        cols[lo:lo + chunk].tolist() for lo in range(0, len(cols), chunk))


def _outcome_history(takens_cond: np.ndarray, history_bits: int,
                     hist_mask: int) -> int:
    """An outcome-shift register after the whole trace: the global
    history of gshare, bimode and the perceptron, or the statistical
    corrector's 64-bit one.

    The fused loops read history from precomputed columns; rebuild the
    register from the last ``history_bits`` conditional outcomes exactly
    as per-branch shifting would have left it.
    """
    history = 0
    for taken in takens_cond[-history_bits:].tolist():
        history = ((history << 1) | taken) & hist_mask
    return history


def _restore_rcr(p: LLBPTageScL, trace: Trace, cids: np.ndarray) -> None:
    """Leave LLBP's context register as per-branch pushes would have.

    The fused loop reads its CIDs from the column and never pushes, so
    the register takes the last ``W + D`` context-forming PCs here (its
    rolling hashes are rebuilt from them), and every push that changed
    the CCID (``cids[k] != cids[k - 1]``) counts a directory access.
    """
    rcr = p.rcr
    pushes = len(cids) - 1 - p.config.prefetch_distance
    p._cd_accesses += int(np.count_nonzero(
        cids[1:pushes + 1] != cids[:pushes]))
    depth = len(rcr.snapshot())
    pushed = trace.pcs[columns_mod.context_pushes(trace, rcr)]
    rcr.restore((rcr.snapshot() + pushed[-depth:].tolist())[-depth:])


def _per_pc_executions(pcs_measured: np.ndarray) -> Dict[int, int]:
    """Execution counts per PC, dict-ordered by first execution.

    Matches the Python engine's insertion order: ``np.unique`` returns
    each PC's first occurrence index, and sorting by it reproduces the
    order the serial loop first saw each PC.
    """
    if len(pcs_measured) == 0:
        return {}
    uniq, first, counts = np.unique(
        pcs_measured, return_index=True, return_counts=True)
    order = np.argsort(first, kind="stable")
    return dict(zip(uniq[order].tolist(), counts[order].tolist()))


def run_simulation_array(
    trace: Trace,
    predictor: BranchPredictor,
    warmup_instructions: Optional[int] = None,
) -> SimulationResult:
    """Array-engine counterpart of :func:`repro.sim.engine.run_simulation`.

    Raises ``ValueError`` for unsupported predictors (see
    :func:`unsupported_reason`); only ``engine="python"`` runs them.
    """
    from repro.sim.engine import DEFAULT_WARMUP_FRACTION

    reason = unsupported_reason(predictor)
    if reason is not None:
        raise ValueError(f"array engine cannot run this predictor: {reason}")

    if warmup_instructions is None:
        warmup_instructions = int(
            trace.num_instructions * DEFAULT_WARMUP_FRACTION)

    n = len(trace)
    if n:
        cumulative = np.cumsum(trace.gaps, dtype=np.int64)
        total_instructions = int(cumulative[-1])
        split = int(np.searchsorted(
            cumulative, warmup_instructions, side="right"))
    else:
        total_instructions = 0
        split = 0

    if n and split >= n:
        warnings.warn(
            f"warmup ({warmup_instructions} instructions) consumed the entire "
            f"trace {trace.name!r} ({total_instructions} instructions); the "
            "measured region is empty and all statistics will be zero",
            RuntimeWarning,
            stacklevel=2,
        )

    cond_mask = trace.types == 0
    pcs_cond = trace.pcs[cond_mask]
    takens_cond = trace.takens[cond_mask]
    n_cond = len(pcs_cond)
    csplit = int(cond_mask[:split].sum())

    predictor_name = getattr(predictor, "name", type(predictor).__name__)
    telemetry_on = telemetry.enabled()
    start = time.perf_counter() if telemetry_on else 0.0

    per_pc_misp: Dict[int, int] = {}
    if type(predictor) is PerfectPredictor:
        # Never mispredicts: nothing to simulate.
        measured_misp = 0
    elif type(predictor) is Bimodal:
        idx = (pcs_cond >> np.uint64(2)) & np.uint64(predictor._mask)
        sim = _compile_gshare(predictor)
        measured_misp = sim(
            pcs_cond, takens_cond, idx, csplit, per_pc_misp)
    elif type(predictor) is GShare:
        idx = columns_mod.gshare_columns(trace, predictor)
        sim = _compile_gshare(predictor)
        measured_misp = sim(
            pcs_cond, takens_cond, idx, csplit, per_pc_misp)
        # The fused loop reads history from the column; re-derive the
        # final register value so predictor state matches the oracle.
        predictor.history = _outcome_history(
            takens_cond, predictor.history_bits, predictor._hist_mask)
    elif type(predictor) is BiMode:
        cols = columns_mod.bimode_columns(trace, predictor)
        sim = _compile_bimode(predictor)
        measured_misp = sim(
            pcs_cond, takens_cond, cols, csplit, per_pc_misp)
        predictor.history = _outcome_history(
            takens_cond, predictor.config.history_bits, predictor._hist_mask)
    elif type(predictor) is HashedPerceptron:
        cols = columns_mod.percep_columns(trace, predictor)
        sim = _compile_perceptron(predictor)
        measured_misp = sim(
            pcs_cond, takens_cond, cols, csplit, per_pc_misp)
        predictor.history = _outcome_history(
            takens_cond, predictor.config.history_bits, predictor._hist_mask)
    elif type(predictor) is TageScL:
        cols = columns_mod.tsl_columns(trace, predictor)
        sim = _compile_tsl(predictor)
        measured_misp = sim(
            pcs_cond, takens_cond, cols, csplit, per_pc_misp)
        predictor.sc.history = _outcome_history(
            takens_cond, 64, (1 << 64) - 1)
    else:
        tsl_cols, slot_cols, cids = columns_mod.llbp_columns(trace, predictor)
        # The fused loop wants one row per branch; memoise the combined
        # matrix next to its two parts.
        combined_key = ("rows/" + columns_mod.tsl_key(predictor.tsl) + "+"
                        + columns_mod.llbp_key(predictor))
        cols = trace.aux.get(combined_key)
        if cols is None:
            cols = np.concatenate([tsl_cols, slot_cols], axis=1)
            trace.aux[combined_key] = cols
        sim = _compile_llbp(predictor)
        distance = predictor.config.prefetch_distance
        cid_rows = (sliding_window_view(cids, distance + 1) if distance
                    else cids)
        measured_misp = sim(
            trace.pcs, trace.types, trace.takens, trace.gaps,
            _iter_rows(cols), _iter_rows(cid_rows), split, per_pc_misp)
        predictor.counts["predictions"] += n_cond
        predictor.tsl.sc.history = _outcome_history(
            takens_cond, 64, (1 << 64) - 1)
        _restore_rcr(predictor, trace, cids)

    per_pc_exec = _per_pc_executions(pcs_cond[csplit:])

    if telemetry_on:
        telemetry.emit(
            "sim.run", workload=trace.name, predictor=predictor_name,
            engine="array", branches=n, instructions=total_instructions,
            mispredictions=measured_misp,
            seconds=time.perf_counter() - start)

    branches = n - split
    cond_branches = n_cond - csplit if split < n else 0

    if split < n:
        measured_instr_start = int(cumulative[split - 1]) if split else 0
    else:
        measured_instr_start = total_instructions

    return SimulationResult(
        extra=predictor.run_counters(),
        workload=trace.name,
        predictor=predictor_name,
        instructions=total_instructions - measured_instr_start,
        warmup_instructions=measured_instr_start,
        branches=branches,
        cond_branches=cond_branches,
        mispredictions=measured_misp,
        per_pc_mispredictions=per_pc_misp,
        per_pc_executions=per_pc_exec,
    )
