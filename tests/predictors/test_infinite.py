"""Infinite-capacity TAGE (the §II-C limit study substrate)."""

from repro.predictors.infinite import InfiniteTage, useful_pattern_counts
from repro.predictors.presets import tage_infinite, tsl_64k, tsl_infinite
from repro.predictors.tage import Tage, TageConfig
from repro.sim.engine import run_simulation


def small_config(**overrides):
    defaults = dict(
        history_lengths=(4, 8, 16, 32, 64),
        index_bits=6,
        tag_bits=10,
        bimodal_index_bits=10,
    )
    defaults.update(overrides)
    return TageConfig(**defaults)


def drive(predictor, pc, taken):
    meta = predictor.predict(pc)
    predictor.train(pc, taken, meta)
    predictor.update_history(pc, 0, taken, 0)
    return meta


def test_allocation_never_fails():
    predictor = InfiniteTage(small_config())
    for i in range(500):
        drive(predictor, 0x100 + 8 * (i % 50), i % 3 == 0)
    assert predictor.num_patterns() > 0


def test_no_capacity_evictions():
    """Patterns only accumulate — nothing is ever evicted."""
    predictor = InfiniteTage(small_config())
    counts = []
    for i in range(300):
        drive(predictor, 0x100 + 8 * (i % 20), i % 2 == 0)
        counts.append(predictor.num_patterns())
    assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_learns_fixed_direction():
    predictor = InfiniteTage(small_config())
    for _ in range(50):
        drive(predictor, 0x100, True)
    assert predictor.lookup(0x100).pred is True


def test_per_pc_tagging_prevents_aliasing():
    """Two PCs with colliding (index, tag) stay separate entries."""
    predictor = InfiniteTage(small_config(index_bits=1, tag_bits=2))
    for i in range(200):
        drive(predictor, 0x100, True)
        drive(predictor, 0x104, False)
    assert predictor.lookup(0x100).pred is True
    assert predictor.lookup(0x104).pred is False


def test_useful_tracing_disabled_by_default():
    predictor = InfiniteTage(small_config())
    for i in range(300):
        drive(predictor, 0x100, i % 2 == 0)
    assert predictor.useful_events == []
    assert useful_pattern_counts(predictor.useful_events) == {}
    assert predictor.updates == 300


def test_useful_tracing_records_patterns():
    predictor = InfiniteTage(small_config())
    predictor.trace_useful = True
    for i in range(600):
        drive(predictor, 0x100, i % 2 == 0)
    counts = useful_pattern_counts(predictor.useful_events)
    assert counts.get(0x100, 0) >= 1


def test_useful_events_recorded():
    """Each useful event is (conditional-branch ordinal, pc, pattern),
    at most one per trained branch, in branch order."""
    predictor = InfiniteTage(small_config())
    predictor.trace_useful = True
    for i in range(600):
        drive(predictor, 0x100, i % 2 == 0)
    events = predictor.useful_events
    assert events
    ordinals = [ordinal for ordinal, _, _ in events]
    assert ordinals == sorted(set(ordinals))
    assert 0 <= ordinals[0] and ordinals[-1] < 600
    for _ordinal, pc, (table, idx, tag, pattern_pc) in events:
        assert pc == pattern_pc == 0x100
        assert 0 <= table < 5
        assert (idx, tag, pc) in predictor.entries[table]
    assert useful_pattern_counts(events) == {
        0x100: len({pattern for _, _, pattern in events})}


def test_state_arrays_snapshot():
    """The snapshot covers the dict tables in insertion order (and the
    useful events when traced) instead of the deleted array tables."""
    predictor = tage_infinite()
    predictor.tage.trace_useful = True
    for i in range(400):
        drive(predictor, 0x100 + 8 * (i % 7), i % 3 == 0)
    arrays = predictor.state_arrays()
    entries = arrays["tage/entries"]
    assert len(entries) == predictor.tage.num_patterns() > 0
    first = [(t, *key) for t, table in enumerate(predictor.tage.entries)
             for key in table]
    assert [tuple(row[:4]) for row in entries.tolist()] == first
    assert len(arrays["tage/useful_events"]) == len(
        predictor.tage.useful_events)
    assert {"tage/bimodal", "tage/use_alt", "tage/rng"} <= set(arrays)
    assert "tage/useful_events" not in tsl_infinite().state_arrays()


def test_inf_beats_finite_under_pressure(tiny_workload_trace):
    finite = Tage(small_config(index_bits=4, bimodal_index_bits=8))
    infinite = InfiniteTage(small_config(index_bits=4, bimodal_index_bits=8))
    # Bare TAGEs have no fused loop: only the Python engine runs them.
    r_fin = run_simulation(tiny_workload_trace, finite, engine="python")
    r_inf = run_simulation(tiny_workload_trace, infinite, engine="python")
    assert r_inf.mpki < r_fin.mpki


def test_presets_compose(tiny_workload_trace):
    base = run_simulation(tiny_workload_trace, tsl_64k())
    inf_tage = run_simulation(tiny_workload_trace, tage_infinite())
    inf_tsl = run_simulation(tiny_workload_trace, tsl_infinite())
    assert inf_tage.mpki <= base.mpki * 1.05
    assert inf_tsl.mpki <= base.mpki * 1.05


def test_storage_bits_grows_with_patterns():
    predictor = InfiniteTage(small_config())
    empty = predictor.storage_bits()
    for i in range(200):
        drive(predictor, 0x100 + 8 * i, i % 2 == 0)
    assert predictor.storage_bits() > empty
