"""Context-locality study (Fig 5 machinery)."""

from repro.analysis.contexts import (
    _UNCOND_TYPES,
    ContextStudyResult,
    _context_hash,
    patterns_per_context_study,
)
from repro.analysis.working_set import baseline_order, traced_inf_tage
from repro.predictors.presets import tage_infinite, tsl_64k
from repro.sim.engine import run_simulation


def test_context_hash_depends_on_order():
    assert _context_hash([0x100, 0x200]) != _context_hash([0x200, 0x100])


def test_context_hash_depends_on_content():
    assert _context_hash([0x100, 0x200]) != _context_hash([0x100, 0x300])


def test_context_hash_fits_bits():
    value = _context_hash([0xFFFFFFFF] * 8, bits=20)
    assert 0 <= value < (1 << 20)


def test_study_result_percentiles():
    res = ContextStudyResult(window=4, counts=[1, 2, 3, 4, 100])
    assert res.p50 == 3
    assert res.p95 == 100
    assert ContextStudyResult(window=0, counts=[]).p50 == 0


def test_patterns_per_context_study(tiny_workload_trace):
    baseline = run_simulation(tiny_workload_trace, tsl_64k())
    results = patterns_per_context_study(
        tiny_workload_trace,
        traced_inf_tage(tiny_workload_trace).useful_events, baseline,
        windows=(0, 4, 16), top_branches=32,
    )
    by_window = {r.window: r for r in results}
    assert set(by_window) == {0, 4, 16}
    # Context locality: deeper windows need fewer patterns per context.
    assert by_window[16].p95 <= by_window[0].p95
    assert by_window[4].p95 <= by_window[0].p95
    # Deeper windows slice into at least as many contexts.
    assert len(by_window[16].counts) >= len(by_window[0].counts)


def test_events_land_in_the_context_before_their_branch(tiny_workload_trace):
    """The one-pass attribution equals a per-branch replay that reads
    each branch's new useful events right after training it, in the
    context of the unconditional branches retired before it."""
    trace = tiny_workload_trace
    baseline = run_simulation(trace, tsl_64k())
    top = set(baseline_order(baseline)[:16])
    windows = (0, 2, 8)

    predictor = tage_infinite()
    tage = predictor.tage
    tage.trace_useful = True
    recent = [0] * max(windows)
    patterns = {}
    for pc, btype, taken_i, target, _gap in trace.iter_tuples():
        taken = taken_i == 1
        if btype == 0:
            before = len(tage.useful_events)
            predictor.train(pc, taken, predictor.predict(pc))
            for _ordinal, event_pc, pattern in tage.useful_events[before:]:
                if event_pc not in top:
                    continue
                for w in windows:
                    context = _context_hash(recent[-w:]) if w else 0
                    patterns.setdefault((w, event_pc, context),
                                        set()).add(pattern)
        predictor.update_history(pc, btype, taken, target)
        if btype in _UNCOND_TYPES:
            recent = recent[1:] + [pc]

    results = patterns_per_context_study(
        trace, traced_inf_tage(trace).useful_events, baseline,
        windows=windows, top_branches=16)
    assert patterns
    for res in results:
        assert res.counts == [len(v) for (w, _pc, _ctx), v
                              in patterns.items() if w == res.window]
