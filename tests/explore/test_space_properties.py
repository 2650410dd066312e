"""Property tests for the search-space grammar and storage model.

Hypothesis generates configurations across the whole ``tsl:`` / ``llbp:``
axes and asserts the contracts the explore harness depends on: every
generated config renders to a key the registry parses back to the same
config, canonicalisation is idempotent and agrees with ``key_of`` on a
live predictor, and the storage model is positive, monotone in table
size, and a pure function of the key.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.explore.cost import storage_cost_bits
from repro.llbp.config import LLBPConfig
from repro.predictors import registry
from repro.predictors.registry import PredictorSpec, TslGeometry

scales = st.sampled_from([1, 2, 4, 8, 16])

tsl_geometries = st.builds(
    TslGeometry,
    scale=scales,
    tables=st.integers(min_value=1, max_value=21),
    tag_bits=st.integers(min_value=2, max_value=16),
    sc_index_bits=st.integers(min_value=1, max_value=12),
)


def llbp_configs() -> st.SearchStrategy[LLBPConfig]:
    def build(cd_bits, bucketed, ps_exp, window, distance, pb):
        changes = {
            "cd_set_bits": cd_bits,
            "context_window": window,
            "prefetch_distance": distance,
            "pb_entries": pb,
        }
        if not bucketed:
            changes["bucketed"] = False
            changes["patterns_per_set"] = 1 << ps_exp
        return dataclasses.replace(LLBPConfig(), **changes)

    return st.builds(
        build,
        st.integers(min_value=5, max_value=12),
        st.booleans(),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=32),
        st.integers(min_value=0, max_value=8),
        # The pattern buffer is set-associative: entries must divide
        # into pb_ways (4) ways.
        st.integers(min_value=1, max_value=64).map(lambda n: n * 4),
    )


def tsl_key(geometry: TslGeometry) -> str:
    return PredictorSpec("tsl", geometry).key


def llbp_key(config: LLBPConfig) -> str:
    return PredictorSpec("llbp", config).key


@given(tsl_geometries)
def test_tsl_key_round_trips_through_parse(geometry):
    key = tsl_key(geometry)
    spec = registry.parse_key(key)
    if spec.family == "tsl":
        assert spec.config == geometry
    else:
        # Pure power-of-two scales collapse to a preset plain key.
        assert geometry == TslGeometry(scale=geometry.scale)
    assert registry.canonical_key(key) == key   # idempotent


@given(llbp_configs())
def test_llbp_key_round_trips_through_parse(config):
    key = llbp_key(config)
    assert registry.parse_key(key).config == config
    assert registry.canonical_key(key) == key


@settings(max_examples=25)  # instantiates real predictor tables
@given(st.builds(TslGeometry,
                 scale=st.sampled_from([1, 2]),
                 tables=st.integers(min_value=2, max_value=21),
                 tag_bits=st.integers(min_value=6, max_value=14)))
def test_tsl_key_of_round_trips_through_a_live_predictor(geometry):
    key = tsl_key(geometry)
    assert registry.key_of(registry.make_predictor(key)) == key


@settings(max_examples=25)
@given(llbp_configs())
def test_llbp_key_of_round_trips_through_a_live_predictor(config):
    key = llbp_key(config)
    assert registry.key_of(registry.make_predictor(key)) == key


@given(tsl_geometries)
def test_tsl_storage_cost_is_positive_and_stable(geometry):
    key = tsl_key(geometry)
    bits = storage_cost_bits(key)
    assert bits > 0
    assert bits == storage_cost_bits(key)   # pure function of the key


@given(llbp_configs())
def test_llbp_storage_cost_is_positive_and_stable(config):
    key = llbp_key(config)
    bits = storage_cost_bits(key)
    assert bits > 0
    assert bits == storage_cost_bits(key)


@given(st.builds(TslGeometry,
                 scale=scales,
                 tables=st.integers(min_value=1, max_value=20),
                 tag_bits=st.integers(min_value=2, max_value=16)))
def test_tsl_storage_cost_is_monotone_in_tables(geometry):
    bigger = dataclasses.replace(geometry, tables=geometry.tables + 1)
    assert (storage_cost_bits(tsl_key(bigger))
            > storage_cost_bits(tsl_key(geometry)))


@given(st.builds(TslGeometry,
                 scale=st.sampled_from([1, 2, 4, 8]),
                 tables=st.integers(min_value=1, max_value=21)))
def test_tsl_storage_cost_is_monotone_in_scale(geometry):
    bigger = dataclasses.replace(geometry, scale=geometry.scale * 2)
    assert (storage_cost_bits(tsl_key(bigger))
            > storage_cost_bits(tsl_key(geometry)))


@given(llbp_configs())
def test_llbp_storage_cost_is_monotone_in_directory_size(config):
    bigger = dataclasses.replace(config,
                                 cd_set_bits=config.cd_set_bits + 1)
    assert (storage_cost_bits(llbp_key(bigger))
            > storage_cost_bits(llbp_key(config)))
