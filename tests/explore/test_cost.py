"""A key's storage price is the live accounting of its predictor.

``storage_cost_bits`` builds the predictor a key names and reads its
``storage_bits()``, computed from the tables it did build.  For every
bounded config the price must equal that accounting to the bit, so no
second storage model can creep back in and drift from the predictors.
"""

from __future__ import annotations

import math

import pytest

from repro.explore.cost import (
    INFINITE_KEYS,
    storage_cost_bits,
    storage_kib,
)
from repro.predictors import registry

FINITE_KEYS = tuple(key for key in registry.known_keys()
                    if key not in INFINITE_KEYS)

PARAMETERIZED_KEYS = (
    "tsl:x=2,t=11",
    "tsl:t=16,tag=10",
    "tsl:x=4,sc=6",
    "llbp:cd_bits=10",
    "llbp:unbucketed,ps=8",
    "llbp:unbucketed,ps=32,cd_bits=7",
    "llbp:w=16,d=0",
    "llbp:pb=128",
    "bimode:c=14,d=15",
    "bimode:c=10,d=10,h=8",
    "percep:t=4,h=24,r=11",
    "percep:w=6,theta=40",
)


@pytest.mark.parametrize("key", FINITE_KEYS + PARAMETERIZED_KEYS)
def test_model_matches_live_storage_bits(key):
    predictor = registry.make_predictor(key)
    assert storage_cost_bits(key) == predictor.storage_bits()


@pytest.mark.parametrize("key", sorted(INFINITE_KEYS))
def test_unbounded_oracles_price_as_infinity(key):
    assert math.isinf(storage_cost_bits(key))


def test_perfect_prices_as_zero():
    assert storage_cost_bits("perfect") == 0


def test_known_sizes():
    # The paper's baseline TSL is a 64-KiB-class budget; LLBP adds its
    # backing structures on top of it.
    assert storage_cost_bits("tsl64") == 102_720
    assert storage_cost_bits("llbp") > storage_cost_bits("tsl64")


def test_rejects_unknown_keys():
    with pytest.raises(KeyError):
        storage_cost_bits("no-such-predictor")


def test_storage_kib():
    assert storage_kib(8192) == 1.0
    assert math.isinf(storage_kib(math.inf))
