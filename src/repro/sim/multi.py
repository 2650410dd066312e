"""Single-pass multi-predictor simulation: decode once, update N predictors.

Every figure in the paper's evaluation runs the *same* workload trace
under many predictor configurations.  :func:`run_simulation` decodes the
trace once per predictor; :func:`run_simulation_batch` decodes each
branch record once and steps every predictor on it, producing results
**bit-identical** to N separate :func:`run_simulation` calls (the
equivalence tests assert full :class:`SimulationResult` equality,
per-PC dictionaries included).

Beyond the shared decode, the batch shares the computations that are a
pure function of the trace rather than of any predictor's state:

* **folded-history registers** — :class:`~repro.predictors.history.HistorySet`
  values depend only on the outcome-driven history bit stream (every
  TAGE-family predictor pushes ``(pc, is_conditional, taken)`` per
  retired branch, never a prediction), so two sets with identical
  folding geometry follow identical trajectories.  The first predictor
  presenting a geometry becomes its *leader* and computes the folds;
  every later identical set becomes a *follower* whose per-branch push
  is replaced with a list copy of the leader's values.  In a fig09-style
  batch this removes the single hottest block in the simulator (the
  generated ``<fold-push>`` update) from all but one member per
  geometry class — e.g. ``llbp``'s internal 64K TAGE folds duplicate
  ``tsl64``'s exactly.
* **per-PC execution counts** — which conditional PCs execute in the
  measured region is trace-determined, so the batch maintains one
  shared dict and hands each member a copy (same insertion order as a
  serial run, so even the cached JSON bytes match).

Per-predictor state (TAGE tables, usefulness counters, LLBP pattern
sets, statistical corrector, loop predictor) is **never** shared: LLBP
training perturbs its internal TAGE-SC-L differently from a standalone
one, so only provably stream-determined state crosses members.

Telemetry: one ``sim.batched_pass`` event per batch with the member
count and effective branch-update throughput.
"""

from __future__ import annotations

import time
import warnings
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import telemetry
from repro.llbp.predictor import LLBPTageScL, _compile_slot_tags
from repro.predictors.base import BranchPredictor
from repro.predictors.history import GlobalHistory, HistorySet, _compile_push
from repro.predictors.perfect import PerfectPredictor
from repro.predictors.tage import Tage, _compile_match, _compile_scan
from repro.predictors.tage_sc_l import TageScL
from repro.sim.engine import (DEFAULT_WARMUP_FRACTION, resolve_engine,
                              run_simulation)
from repro.sim.results import SimulationResult
from repro.traces.trace import Trace

#: Predictor families whose ``update_history`` pushes exactly one
#: outcome-driven bit per retired branch into a :class:`GlobalHistory` —
#: the invariant that makes fold trajectories shareable across members.
_STREAM_DRIVEN = (TageScL, LLBPTageScL)


def install_fold_sharing(predictors: Sequence[BranchPredictor]) -> int:
    """Deduplicate fold work across ``predictors``; returns sets rewired.

    A folded register is a pure function of (history length, fold width,
    bit stream), and every stream-driven member folds the *same* stream —
    so sharing is resolved per register, not per whole set: walking
    members in batch order, the first set to present a (length, width)
    pair becomes that register's owner, and any later occurrence is
    compiled as a copy from the owner's slot instead of a recomputation
    (see ``_compile_push``'s ``copies``).  A set whose registers are all
    owned elsewhere degenerates to pure copies (llbp's internal 64K TAGE
    folds duplicate tsl64's exactly); partially-covered sets keep an
    incremental update for their private registers only (a scaled TSL's
    tag folds match the baseline's even though its index folds don't —
    and for the 512K geometry even the index fold coincides with an
    existing tag fold, so the whole set collapses).  Duplicate widths
    *within* one set dedupe the same way against the set's own slots.

    Only predictors whose history updates are provably stream-determined
    participate (:data:`_STREAM_DRIVEN`).  The rewrite is only sound
    while all predictors are stepped on the same branch stream with
    owners ordered before copiers — i.e. inside
    :func:`run_simulation_batch`, on freshly constructed predictors that
    are discarded after the pass.
    """
    registry: Dict[tuple, tuple] = {}  # (age, width) -> (values, slot)
    seen: set = set()
    shared = 0
    for predictor in predictors:
        if not isinstance(predictor, _STREAM_DRIVEN):
            continue
        history = getattr(predictor, "history", None)
        if not isinstance(history, GlobalHistory):
            continue
        for consumer in history._consumers:
            if not isinstance(consumer, HistorySet) or id(consumer) in seen:
                continue
            seen.add(id(consumer))
            owned_params: List[tuple] = []
            owned_indices: List[List[int]] = []
            copies: List[tuple] = []
            j = 0
            for tup in consumer._params:
                age, folds = tup[0], tup[1:]
                comp: List[int] = [age]
                comp_idx: List[int] = []
                for k in range(0, len(folds), 3):
                    width = folds[k + 1]
                    entry = registry.get((age, width))
                    if entry is None:
                        registry[(age, width)] = (consumer.values, j)
                        comp.extend(folds[k:k + 3])
                        comp_idx.append(j)
                    else:
                        copies.append((j, entry))
                    j += 1
                if comp_idx:
                    owned_params.append(tuple(comp))
                    owned_indices.append(comp_idx)
            if not copies:
                continue  # fully private set: keep its original push
            source_names: Dict[int, str] = {}
            sources: Dict[str, List[int]] = {}
            copy_rows: List[tuple] = []
            for dst, (src_values, src_slot) in copies:
                name = source_names.get(id(src_values))
                if name is None:
                    name = f"s{len(sources)}"
                    source_names[id(src_values)] = name
                    sources[name] = src_values
                copy_rows.append((dst, name, src_slot))
            consumer._push = _compile_push(
                owned_params, consumer.values, owned_indices,
                copy_rows, sources)
            shared += 1
    return shared


def _share_tage_match(leader: Tage, follower: Tage,
                      memo: List, seq: List[int]) -> None:
    """Point ``follower``'s match core at ``leader``'s published hashes.

    The leader's ``_match`` is recompiled with the memo stores baked in
    (same fold/tag bindings, so the swap is free of behaviour change);
    the follower's is replaced by a guard that reuses the memoised
    indices/tags when they belong to the current record and PC, scanning
    only its private tag tables — and falls back to its original full
    core otherwise, so a missed memo can never change results.
    """
    if getattr(leader, "_match_memo", None) is not memo:
        leader._match = _compile_match(
            leader.config.num_tables, leader._idx_mask, leader._tag_mask,
            leader.folded.values, leader.tags, memo=memo, seq=seq)
        leader._match_memo = memo
    scan = _compile_scan(follower.config.num_tables, follower.tags)

    def _follower_match(pcx, path_mix, _orig=follower._match,
                        _memo=memo, _seq=seq, _scan=scan):
        if _memo[0] != _seq[0] or _memo[1] != pcx:
            return _orig(pcx, path_mix)
        indices = _memo[2]
        tags = _memo[3]
        provider, alt = _scan(indices, tags)
        return indices, tags, provider, alt

    follower._match = _follower_match


def _share_slot_tags(leader: LLBPTageScL, follower: LLBPTageScL,
                     memo: List, seq: List[int]) -> None:
    """Share LLBP slot-tag hashing between identical-geometry members."""
    if getattr(leader, "_slot_memo", None) is not memo:
        leader._slot_tags = _compile_slot_tags(
            leader._slot_folds, leader._tag_mask, leader.folded.values,
            leader._slot_second, memo=memo, seq=seq)
        leader._slot_memo = memo

    def _shared_slot_tags(pcx, _orig=follower._slot_tags,
                          _memo=memo, _seq=seq):
        if _memo[0] == _seq[0] and _memo[1] == pcx:
            return _memo[2]
        return _orig(pcx)

    follower._slot_tags = _shared_slot_tags


def install_lookup_sharing(predictors: Sequence[BranchPredictor],
                           seq: List[int]) -> int:
    """Share per-branch lookup hashing across identical-geometry members.

    Two hash families are pure functions of (PC, history stream) and so
    identical across members whose folded histories share parameters:

    * the TAGE table indices/tags (``_compile_match``) — the first such
      instance publishes them into a memo, later ones scan their private
      tag tables against the shared hashes (``_compile_scan``);
    * LLBP's 16 slot tags (``_compile_slot_tags``) — published the same
      way and reused outright (the list is read-only downstream).

    ``seq`` must be bumped by the batch loop once per trace record; a
    memo is honoured only when both the record sequence number and the
    PC match, and every follower keeps its original core as a fallback,
    so sharing can only ever skip redundant work, never alter results.
    Returns the number of follower cores rewired.
    """
    shared = 0
    tage_groups: Dict[tuple, tuple] = {}
    for predictor in predictors:
        if isinstance(predictor, TageScL):
            tage = predictor.tage
        elif isinstance(predictor, LLBPTageScL):
            tage = predictor.tsl.tage
        else:
            continue
        # Exact type, as the array engine requires: a subclass such as
        # InfiniteTage has no bounded tag tables to scan.
        if type(tage) is not Tage:
            continue
        key = (tuple(tage.folded._params), tage._idx_mask, tage._tag_mask)
        entry = tage_groups.get(key)
        if entry is None:
            tage_groups[key] = (tage, [None, None, None, None])
        elif entry[0] is not tage:
            _share_tage_match(entry[0], tage, entry[1], seq)
            shared += 1

    llbp_groups: Dict[tuple, tuple] = {}
    for predictor in predictors:
        if not isinstance(predictor, LLBPTageScL):
            continue
        key = (tuple(predictor._slot_folds), predictor._tag_mask,
               tuple(predictor.folded._params),
               tuple(predictor.tsl.tage.folded._params))
        entry = llbp_groups.get(key)
        if entry is None:
            llbp_groups[key] = (predictor, [None, None, None])
        elif entry[0] is not predictor:
            _share_slot_tags(entry[0], predictor, entry[1], seq)
            shared += 1
    return shared


def _compile_pass(predictors: Sequence[BranchPredictor],
                  collect_per_pc: bool):
    """Generate the fused warmup/measure loops for one batch.

    Semantically this is ``for record: for member: step(record)`` with
    each member's step mirroring the engine's specialised loops
    (``_run_warmup`` / ``_measure`` / ``_measure_per_pc`` /
    ``_measure_perfect``) — but the member loop is unrolled into one
    generated function body, so per record the interpreter pays a single
    tuple unpack and zero per-member closure calls.  Each member's bound
    methods are baked in as cell-free globals of the generated module;
    the record sequence number is published to ``seq[0]`` for the
    memoised lookup cores (:func:`install_lookup_sharing`).

    Returns ``(warm, measure, per_pc_misp_dicts)``; ``warm(rows, seq)``
    returns the record count consumed, ``measure(rows, seq, rec,
    shared_exec)`` returns the per-member misprediction counts.
    """
    ns: Dict[str, object] = {}
    per_pc_dicts: List[Dict[int, int]] = []
    warm_body: List[str] = []
    meas_body: List[str] = []
    misp_names: List[str] = []
    returns: List[str] = []
    for i, predictor in enumerate(predictors):
        ns[f"predict{i}"] = predictor.predict
        ns[f"train{i}"] = predictor.train
        ns[f"uh{i}"] = predictor.update_history
        advance = getattr(predictor, "advance", None)
        if advance is not None:
            ns[f"adv{i}"] = advance
        per_pc: Dict[int, int] = {}
        per_pc_dicts.append(per_pc)

        if advance is not None:
            warm_body.append(f"        adv{i}(gap)")
        warm_body.append("        if cond:")
        warm_body.append(f"            train{i}(pc, taken, predict{i}(pc))")
        warm_body.append(f"        uh{i}(pc, btype, taken, target)")

        if advance is not None:
            meas_body.append(f"        adv{i}(gap)")
        if isinstance(predictor, PerfectPredictor):
            # Mirrors engine._measure_perfect: never mispredicts, so no
            # counting — just keep training on the oracle metadata.
            meas_body.append("        if cond:")
            meas_body.append(
                f"            train{i}(pc, taken, predict{i}(pc))")
            returns.append("0")
        else:
            meas_body.append("        if cond:")
            meas_body.append(f"            meta = predict{i}(pc)")
            meas_body.append("            if meta is True or meta is False:")
            meas_body.append("                pred = meta")
            meas_body.append("            else:")
            meas_body.append("                pred = meta.pred")
            meas_body.append("            if pred != taken:")
            meas_body.append(f"                misp{i} += 1")
            if collect_per_pc:
                ns[f"pmisp{i}"] = per_pc
                ns[f"pget{i}"] = per_pc.get
                meas_body.append(
                    f"                pmisp{i}[pc] = pget{i}(pc, 0) + 1")
            meas_body.append(f"            train{i}(pc, taken, meta)")
            misp_names.append(f"misp{i}")
            returns.append(f"misp{i}")
        meas_body.append(f"        uh{i}(pc, btype, taken, target)")

    # Bind every captured method as a default argument: locals are the
    # fastest name scope in CPython, and both loops are the innermost
    # per-record code in a batched run.
    defaults = ", ".join(f"{name}={name}" for name in ns)
    lines = [f"def _warm(rows, seq, {defaults}):",
             "    rec = 0",
             "    for pc, btype, taken_i, target, gap in rows:",
             "        rec += 1",
             "        seq[0] = rec",
             "        taken = taken_i == 1",
             "        cond = btype == 0"]
    lines.extend(warm_body)
    lines.append("    return rec")
    lines.append(f"def _measure(rows, seq, rec, shared_exec, {defaults}):")
    if misp_names:
        lines.append("    " + " = ".join(misp_names) + " = 0")
    if collect_per_pc:
        lines.append("    exec_get = shared_exec.get")
    lines.append("    for pc, btype, taken_i, target, gap in rows:")
    lines.append("        rec += 1")
    lines.append("        seq[0] = rec")
    lines.append("        taken = taken_i == 1")
    lines.append("        cond = btype == 0")
    if collect_per_pc:
        lines.append("        if cond:")
        lines.append("            shared_exec[pc] = exec_get(pc, 0) + 1")
    lines.extend(meas_body)
    lines.append(f"    return [{', '.join(returns)}]")
    exec(compile("\n".join(lines), "<batched-pass>", "exec"), ns)
    return ns["_warm"], ns["_measure"], per_pc_dicts


def run_simulation_batch(
    trace: Trace,
    predictors: Sequence[BranchPredictor],
    warmup_instructions: Optional[int] = None,
    collect_per_pc: bool = False,
    engine: Optional[str] = None,
) -> List[SimulationResult]:
    """Run every predictor over ``trace`` in one decode pass.

    Returns one :class:`SimulationResult` per predictor, in order, each
    bit-identical to ``run_simulation(trace, predictor, ...)`` run in
    isolation.  Predictors must be distinct, freshly constructed
    instances: the pass rewires identical-geometry folded-history sets
    to share fold computation (see :func:`install_fold_sharing`), which
    assumes they are discarded afterwards.

    Under the array engine (the default; see
    :func:`repro.sim.engine.resolve_engine`) each member runs through
    :func:`run_simulation` instead of the fused Python pass — the
    per-trace hash columns memoised on ``trace.aux`` play the role the
    shared fold/lookup cores play here, so cross-member hash work is
    still paid once per geometry.  ``engine="python"`` runs the fused
    pass.
    """
    if not predictors:
        return []
    if len({id(p) for p in predictors}) != len(predictors):
        raise ValueError("batch members must be distinct predictor "
                         "instances")

    if resolve_engine(engine) == "array":
        return [
            run_simulation(trace, predictor, warmup_instructions,
                           collect_per_pc, engine="array")
            for predictor in predictors
        ]
    if warmup_instructions is None:
        warmup_instructions = int(trace.num_instructions
                                  * DEFAULT_WARMUP_FRACTION)

    n = len(trace)
    if n:
        cumulative = np.cumsum(trace.gaps, dtype=np.int64)
        total_instructions = int(cumulative[-1])
        split = int(np.searchsorted(cumulative, warmup_instructions,
                                    side="right"))
    else:
        total_instructions = 0
        split = 0

    if n and split >= n:
        warnings.warn(
            f"warmup ({warmup_instructions} instructions) consumed the "
            f"entire trace {trace.name!r} ({total_instructions} "
            "instructions); the measured region is empty and all "
            "statistics will be zero",
            RuntimeWarning,
            stacklevel=2,
        )

    seq = [0]
    shared_sets = install_fold_sharing(predictors)
    shared_lookups = install_lookup_sharing(predictors, seq)
    names = [getattr(p, "name", type(p).__name__) for p in predictors]
    warm, measure, per_pc_dicts = _compile_pass(predictors, collect_per_pc)

    telemetry_on = telemetry.enabled()
    pass_start = time.perf_counter() if telemetry_on else 0.0

    rec = warm(trace.iter_tuples(0, split), seq)
    shared_exec: Dict[int, int] = {}
    mispredictions = measure(trace.iter_tuples(split, n), seq, rec,
                             shared_exec)

    if telemetry_on:
        seconds = time.perf_counter() - pass_start
        telemetry.emit(
            "sim.batched_pass", workload=trace.name,
            predictors=names, count=len(predictors),
            shared_fold_sets=shared_sets, shared_lookup_cores=shared_lookups,
            branches=n,
            seconds=seconds,
            branches_per_sec=round(n * len(predictors) / seconds)
            if seconds else 0)

    branches = n - split
    cond_branches = int((trace.types[split:] == 0).sum()) if split < n else 0
    if split < n:
        measured_instr_start = int(cumulative[split - 1]) if split else 0
    else:
        measured_instr_start = total_instructions

    results: List[SimulationResult] = []
    for predictor, name, misp, per_pc_misp in zip(
            predictors, names, mispredictions, per_pc_dicts):
        finalize = getattr(predictor, "finalize_stats", None)
        if finalize is not None:
            finalize()
        results.append(SimulationResult(
            extra=dict(predictor.stats.extra),
            workload=trace.name,
            predictor=name,
            instructions=total_instructions - measured_instr_start,
            warmup_instructions=measured_instr_start,
            branches=branches,
            cond_branches=cond_branches,
            mispredictions=misp,
            per_pc_mispredictions=per_pc_misp,
            per_pc_executions=dict(shared_exec) if collect_per_pc else {},
        ))
    return results
