"""perfbench's hook sites resolve against the code it benchmarks.

``perfbench/launch.py`` times each layer by patching named call sites
(``repro.parallel.backend.local:LocalBackend.submit``,
``executor._simulate_task``, ``runner.get_result`` ...).  A site the
code no longer has is not an error there: it lands in the launch's
``missing`` list and its spans silently read zero.  This test fails
instead, so a refactor that moves a hooked name has to move the hook
too.  Moving ``LocalBackend.reset`` would otherwise stop perfbench from
counting pool rebuilds as failed operations, with no visible symptom.

The hooks are installed in a subprocess started with ``python -B``:
no bytecode lands in ``perfbench/`` and no patch leaks into the test
process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]

#: Gone on purpose: the trace store no longer writes hash columns back
#: into trace files, so perfbench's aux-write hook has nothing to wrap.
KNOWN_MISSING = {"repro.traces.store.append_aux"}

_INSTALL = """
import importlib.util, json, sys
from pathlib import Path

spec = importlib.util.spec_from_file_location("launch", sys.argv[1])
launch = importlib.util.module_from_spec(spec)
spec.loader.exec_module(launch)
accounting = launch.Accounting(Path("status.json"), setup_only=False)
accounting.install()
launch.install_tracing(launch.Recorder(Path(".")), accounting.missing)
print(json.dumps(accounting.missing))
"""


def test_every_hook_site_resolves(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-B", "-c", _INSTALL,
         str(REPO / "perfbench" / "launch.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    missing = set(json.loads(proc.stdout.strip().splitlines()[-1]))
    assert missing <= KNOWN_MISSING, (
        f"perfbench hooks no longer found: {sorted(missing - KNOWN_MISSING)}")
