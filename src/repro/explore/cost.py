"""Storage cost: registry key → predictor state bits.

The explore harness ranks configs by MPKI *and* storage.  A key's
price is the live accounting of the predictor it names,
``make_predictor(key).storage_bits()``, so there is no second model to
drift from it.  Building a predictor costs milliseconds (every built-in
template key together takes a few tens of them), which is nothing
beside a single simulation.

The infinite-storage oracles (``inf-tage``, ``inf-tsl``) price as
``math.inf``: their table state grows with the trace, so no static
number is honest, and ``inf`` keeps them out of every storage-bounded
Pareto front without special-casing.  ``perfect`` prices as 0 — it
holds no state at all.
"""

from __future__ import annotations

import math
from typing import Union

from repro.predictors import registry

#: Plain keys whose state grows without bound during a run.
INFINITE_KEYS = frozenset({"inf-tage", "inf-tsl"})


def storage_cost_bits(key: str) -> Union[int, float]:
    """Storage cost of ``key`` in bits.

    Positive for every bounded table predictor, ``math.inf`` for the
    unbounded oracles, 0 for ``perfect``; deterministic in the key.
    Raises the registry's own errors for keys it cannot parse.
    """
    if key in INFINITE_KEYS:
        return math.inf
    return registry.make_predictor(key).storage_bits()


def storage_kib(bits: Union[int, float]) -> float:
    """Bits → KiB for human-facing tables (``inf`` passes through)."""
    if math.isinf(bits):
        return math.inf
    return bits / 8192.0
