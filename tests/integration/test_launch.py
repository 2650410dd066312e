"""A launch pays only for what it runs.

Each CLI module is imported in a fresh interpreter, as ``python -m``
starts it, and the process is then inspected: numpy's OpenBLAS started
no thread pool (``import repro`` sets ``OPENBLAS_NUM_THREADS=1`` unless
it is already set), no module that a simulation run never executes was
imported, and the array engine was, so every child a batch forks
inherits it instead of importing it again.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

#: The modules ``python -m`` runs for the three CLIs.
CLI_MODULES = ("repro.experiments.__main__", "repro.analysis.characterize",
               "repro.explore.__main__")

#: Modules that no simulation run executes.
NEVER_RUN = ("repro.telemetry.report", "repro.sim.core", "repro.sim.icache",
             "repro.traces.stats")

_PROBE = """\
import json, os, sys
import {module}
tasks = "/proc/self/task"
print(json.dumps({{
    "threads": len(os.listdir(tasks)) if os.path.isdir(tasks) else None,
    "blas": os.environ.get("OPENBLAS_NUM_THREADS"),
    "modules": sorted(sys.modules),
}}))
"""


def probe(module: str, **env) -> dict:
    """Import ``module`` in a fresh interpreter and report its state."""
    clean = {name: value for name, value in os.environ.items()
             if name != "OPENBLAS_NUM_THREADS"}
    clean["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    clean.update(env)
    proc = subprocess.run([sys.executable, "-c", _PROBE.format(module=module)],
                          env=clean, capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stdout)


@pytest.fixture(scope="module", params=CLI_MODULES)
def launch(request):
    return probe(request.param)


def test_no_blas_thread_pool(launch):
    if launch["threads"] is None:
        pytest.skip("no /proc/self/task on this platform")
    assert launch["threads"] == 1


def test_import_sets_one_blas_thread(launch):
    assert launch["blas"] == "1"


def test_never_run_modules_are_not_imported(launch):
    assert not set(NEVER_RUN) & set(launch["modules"])


def test_array_engine_is_imported(launch):
    assert "repro.sim.array" in launch["modules"]


def test_a_preset_blas_thread_count_wins():
    assert probe(CLI_MODULES[0], OPENBLAS_NUM_THREADS="3")["blas"] == "3"
