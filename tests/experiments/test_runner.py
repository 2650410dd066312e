"""Experiment runner: predictor keys and result caching."""

import dataclasses

import pytest

from repro.experiments.runner import get_result
from repro.predictors.registry import make_predictor, parse_key
from repro.llbp.config import ContextSource, LLBPConfig
from repro.llbp.predictor import LLBPTageScL
from repro.predictors.perfect import PerfectPredictor
from repro.predictors.tage_sc_l import TageScL


class TestResolve:
    def test_simple_keys(self):
        assert isinstance(make_predictor("tsl64"), TageScL)
        assert isinstance(make_predictor("perfect"), PerfectPredictor)
        assert make_predictor("tsl512").tage._size == 8 * make_predictor("tsl64").tage._size

    def test_llbp_default(self):
        predictor = make_predictor("llbp")
        assert isinstance(predictor, LLBPTageScL)
        assert predictor.config.simulate_timing

    def test_llbp_parameters(self):
        predictor = make_predictor("llbp:lat0,w=16,d=2,src=all,pb=16")
        cfg = predictor.config
        assert not cfg.simulate_timing
        assert cfg.context_window == 16
        assert cfg.prefetch_distance == 2
        assert cfg.context_source is ContextSource.ALL
        assert cfg.pb_entries == 16

    def test_llbp_ablation_tokens(self):
        cfg = make_predictor("llbp:unbucketed,lru,exclusive,noguard").config
        assert not cfg.bucketed
        assert cfg.cd_replacement == "lru"
        assert cfg.exclusive_provider_training
        assert not cfg.weak_override_guard

    def test_llbp_geometry_tokens(self):
        cfg = make_predictor("llbp:unbucketed,cd_bits=10,ps=32").config
        assert cfg.cd_set_bits == 10
        assert cfg.patterns_per_set == 32
        assert cfg.bucket_size == 32

    def test_unknown_key(self):
        with pytest.raises(KeyError):
            make_predictor("nope")

    def test_unknown_llbp_token(self):
        with pytest.raises(ValueError):
            make_predictor("llbp:frobnicate")
        with pytest.raises(ValueError):
            make_predictor("llbp:zz=3")


def llbp_config(spec):
    """The config an ``llbp:`` key suffix resolves to."""
    return parse_key(f"llbp:{spec}").config


class TestParseLLBPKey:
    """Every key-spec token maps to exactly one LLBPConfig field.

    The specs round-trip through the figures' predictor keys and the
    result-cache filenames, so each token's meaning is API surface.
    """

    def test_empty_spec_is_default(self):
        assert llbp_config("") == LLBPConfig()

    @pytest.mark.parametrize("token,field,value", [
        ("lat0", "simulate_timing", False),
        ("virt", "prefetch_latency_cycles", 16),
        ("unbucketed", "bucketed", False),
        ("lru", "cd_replacement", "lru"),
        ("exclusive", "exclusive_provider_training", True),
        ("noguard", "weak_override_guard", False),
        ("w=24", "context_window", 24),
        ("d=3", "prefetch_distance", 3),
        ("src=uncond", "context_source", ContextSource.UNCONDITIONAL),
        ("src=callret", "context_source", ContextSource.CALL_RET),
        ("src=all", "context_source", ContextSource.ALL),
        ("cd_bits=11", "cd_set_bits", 11),
        ("pb=32", "pb_entries", 32),
        ("lat=9", "prefetch_latency_cycles", 9),
    ])
    def test_single_token(self, token, field, value):
        config = llbp_config(token)
        assert getattr(config, field) == value
        # Only the named field (and nothing else) deviates from default.
        assert dataclasses.replace(config, **{field: getattr(LLBPConfig(), field)}) \
            == LLBPConfig()

    def test_ps_sets_patterns_per_set(self):
        # ``ps`` needs ``unbucketed`` alongside: bucketed configs pin the
        # pattern count to the slot-length list (LLBPConfig validates).
        assert llbp_config("unbucketed,ps=48").patterns_per_set == 48
        with pytest.raises(ValueError):
            llbp_config("ps=48")

    def test_tokens_compose(self):
        config = llbp_config("lat0,unbucketed,cd_bits=10,ps=32")
        assert not config.simulate_timing
        assert not config.bucketed
        assert config.cd_set_bits == 10
        assert config.patterns_per_set == 32

    def test_whitespace_and_empty_tokens_ignored(self):
        assert llbp_config(" lat0 , ,w=16") == llbp_config("lat0,w=16")

    @pytest.mark.parametrize("spec", ["bogus", "zz=3", "latency=4"])
    def test_unknown_tokens_rejected(self, spec):
        with pytest.raises(ValueError):
            llbp_config(spec)


class TestCacheRobustness:
    def test_corrupt_cache_file_is_a_miss(self, isolated_caches):
        from repro.experiments import runner

        first = get_result("Kafka", "bimodal")
        path = runner._cache_path("Kafka", 60_000, "bimodal")
        assert path.exists()
        path.write_text("{definitely not json")
        runner.clear_memory_cache()
        # The corrupt file must be silently recomputed, not crash the run.
        assert get_result("Kafka", "bimodal") == first
        # ...and the recompute rewrote a loadable file.
        runner.clear_memory_cache()
        assert runner.peek_result("Kafka", "bimodal") == first

    def test_cache_file_missing_fields_is_a_miss(self, isolated_caches):
        from repro.experiments import runner

        first = get_result("Kafka", "bimodal")
        path = runner._cache_path("Kafka", 60_000, "bimodal")
        path.write_text('{"workload": "Kafka"}')
        runner.clear_memory_cache()
        assert get_result("Kafka", "bimodal") == first

    def test_writes_are_atomic_no_temp_droppings(self, isolated_caches):
        from repro.experiments import runner

        get_result("Kafka", "bimodal")
        get_result("Kafka", "gshare")
        leftovers = list(runner._cache_dir().glob("*.tmp"))
        assert leftovers == []

    def test_peek_does_not_simulate(self, isolated_caches):
        from repro.experiments import runner

        assert runner.peek_result("Kafka", "bimodal") is None
        first = get_result("Kafka", "bimodal")
        runner.clear_memory_cache()
        assert runner.peek_result("Kafka", "bimodal") == first
        # The disk hit is promoted into the memory cache.
        assert runner.peek_result("Kafka", "bimodal") is \
            runner.peek_result("Kafka", "bimodal")


class TestGetResult:
    def test_runs_and_caches(self, isolated_caches):
        first = get_result("Kafka", "bimodal")
        assert first.workload == "Kafka"
        assert first.cond_branches > 0
        # Cached on disk: a second call must return identical numbers.
        from repro.experiments.runner import clear_memory_cache

        clear_memory_cache()
        second = get_result("Kafka", "bimodal")
        assert second.mispredictions == first.mispredictions
        assert second.per_pc_mispredictions == first.per_pc_mispredictions
        assert second.extra == first.extra

    def test_memory_cache_identity(self, isolated_caches):
        first = get_result("Kafka", "bimodal")
        assert get_result("Kafka", "bimodal") is first

    def test_cache_keyed_by_instructions(self, isolated_caches):
        small = get_result("Kafka", "bimodal", instructions=30_000)
        large = get_result("Kafka", "bimodal", instructions=60_000)
        assert small.instructions < large.instructions
