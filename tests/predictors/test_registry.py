"""The predictor registry: grammar and round-trips.

The registry is the single public home of the key grammar every cache
filename and experiment CLI depends on, so its contract is pinned here:
``parse_key``/``make_predictor`` accept exactly the documented grammar
with the documented error types, and ``key_of`` inverts
``make_predictor`` config-for-config.
"""

from __future__ import annotations

import warnings

import pytest

from repro.llbp.config import ContextSource, LLBPConfig
from repro.llbp.predictor import LLBPTageScL
from repro.predictors import registry
from repro.predictors.base import BranchPredictor
from repro.predictors.tage_sc_l import TageScL


class TestParseKey:
    def test_plain_keys_cover_catalog(self):
        for key in registry.known_keys():
            spec = registry.parse_key(key)
            assert spec.family == key
            assert (spec.config is None) == (
                key not in ("llbp", "bimode", "percep"))

    def test_unknown_plain_key_is_keyerror(self):
        with pytest.raises(KeyError):
            registry.parse_key("tsl2m")

    def test_llbp_suffix_resolves_config(self):
        spec = registry.parse_key("llbp:lat0,w=16,d=0")
        assert spec.family == "llbp"
        assert spec.config.simulate_timing is False
        assert spec.config.context_window == 16
        assert spec.config.prefetch_distance == 0

    def test_llbp_source_tokens(self):
        assert (registry.parse_key("llbp:src=callret").config.context_source
                is ContextSource.CALL_RET)

    def test_malformed_suffix_is_valueerror(self):
        with pytest.raises(ValueError, match="unknown LLBP token"):
            registry.parse_key("llbp:turbo")
        with pytest.raises(ValueError, match="unknown LLBP parameter"):
            registry.parse_key("llbp:zz=3")

    def test_whitespace_and_empty_tokens_ignored(self):
        assert (registry.parse_key("llbp: lat0 ,,w=16").config
                == registry.parse_key("llbp:lat0,w=16").config)


class TestMakePredictor:
    def test_every_plain_key_instantiates(self):
        for key in registry.known_keys():
            assert isinstance(registry.make_predictor(key), BranchPredictor)

    def test_llbp_key_builds_configured_predictor(self):
        predictor = registry.make_predictor("llbp:cd_bits=10,unbucketed,ps=8")
        assert isinstance(predictor, LLBPTageScL)
        assert predictor.config.cd_set_bits == 10
        assert predictor.config.patterns_per_set == 8
        assert predictor.config.bucketed is False

    def test_tsl_keys_scale_storage(self):
        small = registry.make_predictor("tsl64")
        big = registry.make_predictor("tsl256")
        assert isinstance(small, TageScL)
        assert big.storage_bits() > small.storage_bits()


class TestKeyOf:
    def test_round_trips_every_plain_key(self):
        for key in registry.known_keys():
            assert registry.key_of(registry.make_predictor(key)) == key

    def test_canonicalises_llbp_token_order(self):
        key = registry.key_of(registry.make_predictor("llbp:w=16,lat0"))
        assert key == "llbp:lat0,w=16"
        # and the canonical key parses back to the same config
        assert (registry.parse_key(key).config
                == registry.parse_key("llbp:w=16,lat0").config)

    def test_suffix_round_trips_through_config(self):
        for spec in ("lat0", "unbucketed,ps=48", "src=all,cd_bits=10",
                     "exclusive,lru", "d=0", "pb=32"):
            config = registry.parse_key(f"llbp:{spec}").config
            key = registry.key_of(LLBPTageScL(config))
            assert registry.parse_key(key).config == config

    def test_inexpressible_config_is_valueerror(self):
        config = LLBPConfig(counter_bits=1 + LLBPConfig().counter_bits)
        with pytest.raises(ValueError, match="no key token"):
            registry.key_of(LLBPTageScL(config))

    def test_unknown_predictor_is_valueerror(self):
        class Mystery(BranchPredictor):
            def predict(self, pc):
                return True

            def train(self, pc, taken, meta):
                pass

        with pytest.raises(ValueError, match="no registry key"):
            registry.key_of(Mystery())


class TestDeprecatedShims:
    """Building predictors through the registry never warns."""

    def test_registry_itself_never_warns(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            registry.make_predictor("llbp:lat0")
            registry.parse_key("bimodal")


class TestTslGrammar:
    """The parameterized ``tsl:`` family added for the explore harness."""

    def test_suffix_resolves_geometry(self):
        spec = registry.parse_key("tsl:x=2,t=11,tag=10,sc=9")
        assert spec.family == "tsl"
        assert spec.config == registry.TslGeometry(
            scale=2, tables=11, tag_bits=10, sc_index_bits=9)

    def test_plain_tsl_is_not_a_key(self):
        # The bare family stays out of the catalog: a tsl geometry is
        # always spelled either as a preset (tsl64...) or with tokens.
        with pytest.raises(KeyError):
            registry.parse_key("tsl")

    def test_malformed_suffix_is_valueerror(self):
        for bad in ("tsl:x=3", "tsl:t=0", "tsl:t=22", "tsl:nope=1",
                    "tsl:x"):
            with pytest.raises(ValueError):
                registry.parse_key(bad)

    def test_pure_scale_collapses_to_preset(self):
        for suffix, preset in (("x=1", "tsl64"), ("x=2", "tsl128"),
                               ("x=4", "tsl256"), ("x=8", "tsl512"),
                               ("x=16", "tsl1m"), ("", "tsl64")):
            assert registry.canonical_key(f"tsl:{suffix}") == preset

    def test_preset_spelling_builds_the_preset_predictor(self):
        via_tokens = registry.make_predictor("tsl:x=4")
        via_preset = registry.make_predictor("tsl256")
        assert registry.key_of(via_tokens) == "tsl256"
        assert via_tokens.storage_bits() == via_preset.storage_bits()
        assert via_tokens.name == via_preset.name

    def test_key_of_round_trips_parameterized_geometry(self):
        key = "tsl:t=11,tag=10"
        predictor = registry.make_predictor(key)
        assert isinstance(predictor, TageScL)
        assert registry.key_of(predictor) == key

    def test_history_ladder_subsamples_with_endpoints(self):
        from repro.predictors.presets import TAGE_HISTORY_LENGTHS

        full = registry.tsl_history_lengths(21)
        assert full == tuple(TAGE_HISTORY_LENGTHS)
        sub = registry.tsl_history_lengths(11)
        assert len(sub) == 11
        assert sub[0] == full[0] and sub[-1] == full[-1]
        assert list(sub) == sorted(set(sub))   # strictly increasing
        assert registry.tsl_history_lengths(1) == (full[0],)

    def test_canonical_key_is_idempotent_everywhere(self):
        for key in (*registry.known_keys(), "tsl:t=11", "llbp:lat0",
                    "llbp:unbucketed,cd_bits=8,ps=8"):
            once = registry.canonical_key(key)
            assert registry.canonical_key(once) == once

    def test_parameterized_families(self):
        assert registry.parameterized_families() == (
            "llbp", "tsl", "bimode", "percep")
