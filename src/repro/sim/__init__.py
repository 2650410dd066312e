"""Simulation layer: the trace-driven engines.

The analytic timing core (:mod:`repro.sim.core`) and the L1-I model
(:mod:`repro.sim.icache`) live here too, but only the figures that use
them import them, so a simulation run never loads either.
"""

from repro.sim.results import SimulationResult
from repro.sim.engine import resolve_engine, run_simulation
from repro.sim.multi import run_simulation_batch

__all__ = [
    "SimulationResult",
    "resolve_engine",
    "run_simulation",
    "run_simulation_batch",
]
