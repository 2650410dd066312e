"""Composed TAGE-SC-L."""

from repro.predictors.registry import make_predictor
from repro.predictors.tage import Tage, TageConfig
from repro.predictors.tage_sc_l import TageScL, TslConfig
from repro.sim.engine import run_simulation


def small_tsl():
    config = TslConfig(
        tage=TageConfig(history_lengths=(4, 8, 16, 32), index_bits=7,
                        tag_bits=9, bimodal_index_bits=9),
        sc_index_bits=7,
    )
    return TageScL(config)


def drive(predictor, pc, taken, branch_type=0):
    meta = predictor.predict(pc)
    predictor.train(pc, taken, meta)
    predictor.update_history(pc, branch_type, taken, 0)
    return meta


def test_components_always_built():
    tsls = [small_tsl(), make_predictor("tsl64"), make_predictor("inf-tsl"),
            make_predictor("tsl:t=11"), make_predictor("llbp").tsl]
    for tsl in tsls:
        assert tsl.sc is not None and tsl.loop is not None, tsl.name


def test_learns_simple_bias():
    predictor = small_tsl()
    for _ in range(100):
        drive(predictor, 0x100, True)
    assert predictor.lookup(0x100).pred is True


def test_base_override_replaces_tage_pred():
    # SC and the loop predictor may still flip the final prediction, so
    # the override is checked where it lands: the base prediction.
    predictor = small_tsl()
    for _ in range(50):
        drive(predictor, 0x100, True)
    natural = predictor.lookup(0x100)
    assert natural.base_pred is True
    assert not natural.base_overridden
    overridden = predictor.lookup(0x100, base_override=(False, -3))
    assert overridden.base_pred is False
    assert overridden.base_overridden


def test_lookup_accepts_precomputed_tage_result():
    predictor = small_tsl()
    tage_res = predictor.tage.lookup(0x100)
    res = predictor.lookup(0x100, tage_res=tage_res)
    assert res.tage is tage_res


def test_suppress_tage_provider_keeps_counter():
    predictor = small_tsl()
    for _ in range(200):
        drive(predictor, 0x100, True)
    res = predictor.lookup(0x100)
    if res.tage.provider >= 0:
        idx = res.tage.indices[res.tage.provider]
        before = predictor.tage.ctrs[res.tage.provider][idx]
        tsl_res = predictor.lookup(0x100)
        predictor.train(0x100, False, tsl_res, suppress_tage_provider=True)
        after = predictor.tage.ctrs[res.tage.provider][idx]
        assert after == before


def test_storage_bits_accumulates_components():
    full = small_tsl()
    parts = (full.tage.storage_bits(), full.sc.storage_bits(),
             full.loop.storage_bits())
    assert all(bits > 0 for bits in parts)
    assert full.storage_bits() == sum(parts)


def test_64k_preset_storage_in_range():
    from repro.predictors.presets import tsl_64k

    predictor = tsl_64k()
    kib = predictor.storage_bits() / 8 / 1024
    # The 64K-class baseline scaled by CAPACITY_SCALE=4: ~12-20 KiB.
    assert 8 < kib < 24


def test_mpki_reasonable_on_workload(tiny_workload_trace):
    result = run_simulation(tiny_workload_trace, small_tsl())
    assert result.accuracy > 0.85


def test_sc_and_loop_help_or_do_not_hurt_much(tiny_workload_trace):
    full = small_tsl()
    bare = Tage(full.config.tage)
    full_mpki = run_simulation(tiny_workload_trace, full).mpki
    # A bare TAGE has no fused loop: only the Python engine runs it.
    bare_mpki = run_simulation(tiny_workload_trace, bare,
                               engine="python").mpki
    assert full_mpki <= bare_mpki * 1.15
