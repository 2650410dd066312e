"""Core TAGE predictor."""

import pytest

from repro.predictors.tage import Tage, TageConfig
from repro.sim.engine import run_simulation


def small_config(**overrides):
    defaults = dict(
        history_lengths=(4, 8, 16, 32, 64),
        index_bits=8,
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


class TestConfig:
    def test_lengths_must_increase(self):
        with pytest.raises(ValueError):
            TageConfig(history_lengths=(8, 4))
        with pytest.raises(ValueError):
            TageConfig(history_lengths=(4, 4))

    def test_needs_tables(self):
        with pytest.raises(ValueError):
            TageConfig(history_lengths=())

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            TageConfig(history_lengths=(4,), index_bits=0)


class TestPrediction:
    def test_falls_back_to_bimodal_when_cold(self):
        predictor = Tage(small_config())
        res = predictor.lookup(0x100)
        assert res.provider == -1
        assert res.pred == res.bim_pred

    def test_learns_fixed_direction(self):
        predictor = Tage(small_config())
        for _ in range(50):
            drive(predictor, 0x100, True)
        assert predictor.lookup(0x100).pred is True

    def test_learns_alternating_pattern(self):
        predictor = Tage(small_config())
        correct = 0
        for i in range(600):
            taken = i % 2 == 0
            meta = drive(predictor, 0x100, taken)
            if i >= 300 and meta.pred == taken:
                correct += 1
        assert correct > 280

    def test_learns_period_five_pattern(self):
        predictor = Tage(small_config())
        pattern = [True, True, True, False, False]
        correct = 0
        for i in range(2000):
            taken = pattern[i % 5]
            meta = drive(predictor, 0x200, taken)
            if i >= 1000 and meta.pred == taken:
                correct += 1
        assert correct > 950

    def test_allocates_on_misprediction(self):
        predictor = Tage(small_config())
        # Warm the bimodal toward taken, then surprise it.
        for _ in range(8):
            drive(predictor, 0x100, True)
        drive(predictor, 0x100, False)  # mispredict -> allocate tagged entry
        assert any(any(v for v in table) for table in predictor._valid)

    def test_provider_metadata_consistent(self):
        predictor = Tage(small_config())
        for i in range(300):
            drive(predictor, 0x100, i % 2 == 0)
        res = predictor.lookup(0x100)
        if res.provider >= 0:
            assert 0 < res.provider_length_rank <= predictor.config.num_tables
            idx = res.indices[res.provider]
            assert predictor.tags[res.provider][idx] == res.tags[res.provider]

    def test_indices_within_range(self):
        predictor = Tage(small_config())
        for pc in range(0, 4096, 4):
            res = predictor.lookup(pc)
            assert all(0 <= i < 256 for i in res.indices)
            assert all(0 <= t < 1024 for t in res.tags)


class TestUsefulness:
    def test_useful_set_when_provider_beats_alt(self):
        predictor = Tage(small_config(seed=7))
        # Train a branch whose outcome alternates: the tagged entry will
        # eventually disagree with (and beat) the bimodal.
        for i in range(400):
            drive(predictor, 0x300, i % 2 == 0)
        assert any(any(u for u in table) for table in predictor.useful)

    def test_tick_reset_clears_useful(self):
        predictor = Tage(small_config(tick_threshold=1))
        # Force the tick by saturating usefulness then failing allocations.
        for t in range(predictor.config.num_tables):
            for i in range(predictor._size):
                predictor.useful[t][i] = 1
                predictor._valid[t][i] = True
        res = predictor.lookup(0x100)
        res.pred = not res.pred  # force "mispredict" path in allocate
        predictor.allocate(0x100, True, res)
        assert predictor._tick == 0  # reset happened
        assert sum(sum(t) for t in predictor.useful) == 0


class TestCapacity:
    def test_storage_bits(self):
        predictor = Tage(small_config())
        expected = 2 * 1024 + 5 * 256 * (3 + 10 + 1)
        assert predictor.storage_bits() == expected

    def test_more_capacity_helps_on_pressure(self, tiny_workload_trace):
        small = Tage(small_config(index_bits=5, bimodal_index_bits=8))
        large = Tage(small_config(index_bits=10, bimodal_index_bits=12))
        r_small = run_simulation(tiny_workload_trace, small, engine="python")
        r_large = run_simulation(tiny_workload_trace, large, engine="python")
        assert r_large.mpki <= r_small.mpki


class TestDeterminism:
    def test_same_seed_same_result(self, tiny_workload_trace):
        a = run_simulation(tiny_workload_trace, Tage(small_config()),
                           engine="python")
        b = run_simulation(tiny_workload_trace, Tage(small_config()),
                           engine="python")
        assert a.mispredictions == b.mispredictions
