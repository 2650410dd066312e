"""Multi-predictor batches: bit-identical to serial simulation.

On the array engine the members of a ``run_simulation_batch`` share the
hash columns memoised on the trace, so the only acceptable outcome is
full :class:`SimulationResult` equality with N independent
:func:`run_simulation` calls, per-PC dictionaries (and their insertion
order, which the cached JSON bytes depend on) included.
"""

from __future__ import annotations

import pytest

from repro.predictors.registry import make_predictor
from repro.sim.engine import run_simulation
from repro.sim.multi import run_simulation_batch

#: The acceptance mix: a non-TAGE member, the TAGE-SC-L baseline, and
#: LLBP (whose internal TSL shares fold geometry with the baseline).
KEYS = ("gshare", "tsl64", "llbp")


def _serial(trace, key):
    return run_simulation(trace, make_predictor(key))


def _batch(trace, keys):
    return run_simulation_batch(trace, [make_predictor(k) for k in keys])


class TestBitIdentical:
    def test_acceptance_mix(self, tiny_workload_trace):
        batch = _batch(tiny_workload_trace, KEYS)
        for key, batched in zip(KEYS, batch):
            serial = _serial(tiny_workload_trace, key)
            assert batched == serial, f"batched {key} diverged"
            # Dict equality ignores order, but the cached JSON bytes do
            # not: insertion order must match the serial engine's too.
            assert (list(batched.per_pc_mispredictions)
                    == list(serial.per_pc_mispredictions))
            assert (list(batched.per_pc_executions)
                    == list(serial.per_pc_executions))

    def test_scaled_and_lat0_members(self, tiny_workload_trace):
        """tsl512 shares every fold register with tsl64 (its index folds
        coincide with the (L, 11) tag folds), and llbp:lat0 shares
        geometry with llbp — members whose hash columns overlap must
        still match their serial runs exactly."""
        keys = ("tsl64", "tsl512", "llbp", "llbp:lat0")
        batch = _batch(tiny_workload_trace, keys)
        for key, batched in zip(keys, batch):
            assert batched == _serial(tiny_workload_trace, key), key

    def test_infinite_tage_members_on_the_python_engine(
            self, tiny_workload_trace):
        """inf-tage and inf-tsl subclass Tage without bounded tag tables;
        next to plain TAGEs of the same fold geometry a Python-engine
        batch must still match serial runs."""
        keys = ("tsl64", "inf-tage", "inf-tsl", "tsl512")
        batch = run_simulation_batch(
            tiny_workload_trace, [make_predictor(k) for k in keys],
            engine="python")
        for key, batched in zip(keys, batch):
            serial = run_simulation(tiny_workload_trace, make_predictor(key),
                                    engine="python")
            assert batched == serial, key

    def test_perfect_and_bimodal_members(self, pattern_trace):
        keys = ("perfect", "bimodal", "gshare")
        batch = _batch(pattern_trace, keys)
        for key, batched in zip(keys, batch):
            assert batched == _serial(pattern_trace, key), key

    def test_singleton_batch(self, mixed_trace):
        (batched,) = _batch(mixed_trace, ("tsl64",))
        assert batched == _serial(mixed_trace, "tsl64")

    def test_per_pc_maps_filled(self, mixed_trace):
        (batched,) = _batch(mixed_trace, ("gshare",))
        assert batched == _serial(mixed_trace, "gshare")
        assert batched.cond_branches > 0
        assert sum(batched.per_pc_executions.values()) == batched.cond_branches
        assert (sum(batched.per_pc_mispredictions.values())
                == batched.mispredictions)


class TestBatchContract:
    def test_empty_batch(self, mixed_trace):
        assert run_simulation_batch(mixed_trace, []) == []

    def test_duplicate_instances_rejected(self, mixed_trace):
        predictor = make_predictor("gshare")
        with pytest.raises(ValueError, match="distinct"):
            run_simulation_batch(mixed_trace, [predictor, predictor])

    def test_members_keep_private_state(self, tiny_workload_trace):
        """Two instances of the *same* configuration in one batch must
        behave like two serial runs — sharing covers trace-determined
        hash columns only, never predictor tables."""
        first, second = (make_predictor("tsl64"),
                         make_predictor("tsl64"))
        batch = run_simulation_batch(tiny_workload_trace, [first, second])
        serial = _serial(tiny_workload_trace, "tsl64")
        assert batch[0] == serial
        assert batch[1] == serial
