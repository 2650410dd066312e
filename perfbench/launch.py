"""Run one repro workflow the way a user invokes it, for the benchmark.

    PYTHONPATH=src python perfbench/launch.py --status FILE [--seed N]
        [--trace DIR] [--setup-only] WORKFLOW [ARGS...]

``WORKFLOW`` is ``experiments`` (``python -m repro.experiments ARGS``)
or ``characterize`` (``python -m repro.analysis.characterize ARGS``).
The workflow's own ``main`` runs in this process with ``ARGS`` exactly
as the command line would pass them; the launcher only adds:

* re-seeding: a ``--seed`` other than 0 derives every generated
  trace's random outcomes from the benchmark seed (see ``reseed``), so
  the program receives different generated inputs and nothing else;
* accounting hooks, always on and free on the success path: the time
  of the first ``run_jobs`` call (the end of set-up), charged retries
  (``backoff_delay`` calls) and pool rebuilds (``LocalBackend.reset``);
* with ``--trace DIR``, span recording at every layer's public entry
  points.  Spans are kept in memory and written as JSONL per process:
  pool workers flush after every task, because forked workers exit
  without running ``atexit``.

With ``--setup-only`` the process exits at the first ``run_jobs`` call,
so a launch measures set-up alone.  The status file (JSON) holds the
dispatch time on the ``time.monotonic`` clock, the retry and rebuild
counts, and any hook the running code no longer offers.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import sys
import time
import zlib
from pathlib import Path

WORKFLOWS = {
    "experiments": "repro.experiments.__main__",
    "characterize": "repro.analysis.characterize",
}


def derived_seed(seed: int, name: str) -> int:
    return zlib.crc32(f"{seed}|{name}".encode()) & 0x7FFFFFFF


def reseed(bench_seed: int) -> None:
    """Draw every generated workload's outcomes from ``bench_seed``.

    A catalog workload keeps its committed program and gets a new
    execution path: ``build_program`` also reads ``WorkloadSpec.seed``,
    and a new program changes the work per instruction by up to a
    fifth, which would swamp the timings.  An ``adv:`` stressor's seed
    drives only its random outcomes, so it is replaced outright.
    """
    from repro.workloads import adversarial, catalog

    interpret = catalog.generate_trace

    def generate_trace(program, instructions, seed=1, name="synthetic"):
        return interpret(program, instructions,
                         seed=derived_seed(bench_seed, f"{name}|{seed}"),
                         name=name)

    catalog.generate_trace = generate_trace
    adversarial.AdversarialSpec.seed = property(
        lambda spec: derived_seed(bench_seed, spec.name))


def _resolve(path: str):
    """``"pkg.mod:Class"`` -> the class; ``"pkg.mod"`` -> the module."""
    module, _, attr = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, attr) if attr else owner


def patch(sites, make_wrapper, missing) -> None:
    """Replace ``attr`` on every ``(owner, attr)`` site with a wrapper.

    Sites bound to the same function share one wrapper, so a call is
    recorded once whichever name its caller used.  A site the running
    code no longer has is reported in ``missing`` instead of failing.
    """
    found = []
    for owner_path, attr in sites:
        try:
            found.append((_resolve(owner_path), attr))
        except (ImportError, AttributeError):
            missing.append(f"{owner_path}.{attr}")
    # Read the targets only once every owner is imported: a module
    # imported after a patch would bind the wrapper, not the original.
    wrappers = {}
    for owner, attr in found:
        original = getattr(owner, attr, None)
        if original is None:
            missing.append(f"{owner.__name__}.{attr}")
            continue
        key = id(original)
        if key not in wrappers:
            wrappers[key] = make_wrapper(original)
        setattr(owner, attr, wrappers[key])


class Accounting:
    """Dispatch time, retries and rebuilds of one launch."""

    def __init__(self, status_path: Path, setup_only: bool) -> None:
        self.status_path = status_path
        self.setup_only = setup_only
        self.dispatch = None
        self.retries = 0
        self.rebuilds = 0
        self.missing = []

    def install(self) -> None:
        def on_dispatch(original):
            @functools.wraps(original)
            def run_jobs(*args, **kwargs):
                if self.dispatch is None:
                    self.dispatch = time.monotonic()
                    if self.setup_only:
                        self.write()
                        os._exit(0)
                return original(*args, **kwargs)
            return run_jobs

        def counting(field):
            def make(original):
                @functools.wraps(original)
                def counted(*args, **kwargs):
                    setattr(self, field, getattr(self, field) + 1)
                    return original(*args, **kwargs)
                return counted
            return make

        patch([("repro.parallel", "run_jobs"),
               ("repro.parallel.executor", "run_jobs")],
              on_dispatch, self.missing)
        patch([("repro.parallel.executor", "backoff_delay")],
              counting("retries"), self.missing)
        patch([("repro.parallel.backend.local:LocalBackend", "reset")],
              counting("rebuilds"), self.missing)

    def write(self) -> None:
        self.status_path.write_text(json.dumps({
            "dispatch": self.dispatch, "retries": self.retries,
            "rebuilds": self.rebuilds, "missing": self.missing}))


class Recorder:
    """In-memory spans of one process, written out as JSONL.

    A forked pool worker inherits the parent's recorder mid-span; the
    pid check drops that inherited state before the worker records.
    """

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir
        self.main_pid = os.getpid()
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans = []
        self.stack = []
        self.count = 0
        self.done = {}

    def open(self, layer: str, name: str, job) -> dict:
        if self.pid != os.getpid():
            self._reset()
        parent = self.stack[-1] if self.stack else None
        if job is None and parent is not None:
            job = parent["job"]
        self.count += 1
        span = {"id": f"{self.pid}:{self.count}",
                "parent": parent["id"] if parent else None,
                "layer": layer, "name": name, "job": job, "pid": self.pid,
                "start": time.monotonic(), "end": None}
        self.stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.monotonic()
        self.stack.pop()

    def flush(self) -> None:
        if self.pid != os.getpid() or not self.spans:
            return
        with open(self.out_dir / f"spans-{self.pid}.jsonl", "a") as fh:
            for span in self.spans:
                if span["id"] in self.done:
                    span["done"] = self.done[span["id"]]
                fh.write(json.dumps(span) + "\n")
        self.spans = [span for span in self.spans if span["end"] is None]


def _instructions(value):
    return value if value is not None else os.environ.get(
        "REPRO_INSTRUCTIONS")


def _job_of_workload(name, instructions=None, *_, **__):
    return f"{name}|{_instructions(instructions)}|"


def _job_of_result(workload, key, instructions=None, *_, **__):
    return f"{workload}|{_instructions(instructions)}|{key}"


def _job_of_batch(workload, keys, instructions=None, *_, **__):
    # Join only a sequence: an iterator consumed here would reach the
    # traced function empty.
    keys = ",".join(keys) if isinstance(keys, (list, tuple)) else "?"
    return f"{workload}|{_instructions(instructions)}|{keys}"


def _job_of_task(task, *_, **__):
    return f"{task.workload}|{task.instructions}|{task.keys}"


def _file_size(path) -> int:
    try:
        return os.stat(path).st_size
    except (OSError, TypeError):
        return 0


def _aux_keys(args) -> frozenset:
    return frozenset(getattr(args[0], "aux", None) or ())


def install_tracing(recorder: Recorder, missing: list) -> None:
    """Wrap each layer's public functions where their callers look them up.

    ``runner`` and ``characterize`` bind ``generate_workload`` and the
    simulation entry points at import, so those module globals are
    patched alongside the defining module's.  Everything is installed
    before the pool forks, so workers inherit the wrappers.
    """

    def traced(layer, name, job_of=None, before=None, after=None,
               worker_task=False):
        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                job = job_of(*args, **kwargs) if job_of else None
                state = before(args) if before else None
                span = recorder.open(layer, name, job)
                try:
                    result = original(*args, **kwargs)
                    if after is not None:
                        after(span, args, result, state)
                    return result
                finally:
                    recorder.close(span)
                    if worker_task and os.getpid() != recorder.main_pid:
                        recorder.flush()
            return wrapper
        return make

    def records(span, args, result, state):
        span["items"] = len(result)

    def load_done(span, args, result, state):
        span["hit"] = result is not None
        if result is not None:
            span["bytes"] = _file_size(getattr(result, "store_path", None))

    def store_done(span, args, result, state):
        span["bytes"] = _file_size(result)

    def aux_done(span, args, result, state):
        span["bytes"] = _file_size(args[0]) if result else 0

    def columns_done(span, args, result, state):
        rows = result[0] if isinstance(result, tuple) else result
        span["items"] = len(rows)
        span["reused"] = _aux_keys(args) == state

    def trace_records(span, args, result, state):
        span["items"] = len(args[0])

    def batch_steps(span, args, result, state):
        span["items"] = len(args[0]) * len(args[1])

    def submitted(span, args, result, state):
        span["workers"] = getattr(args[0], "_max_workers", None)
        span_id = span["id"]
        result.add_done_callback(
            lambda _: recorder.done.__setitem__(span_id, time.monotonic()))

    runner = "repro.experiments.runner"
    sites = [
        (traced("workloads", "generate_workload", _job_of_workload,
                after=records),
         [("repro.workloads.catalog", "generate_workload"),
          (runner, "generate_workload"),
          ("repro.analysis.characterize", "generate_workload")]),
        (traced("traces.store", "TraceStore.load", after=load_done),
         [("repro.traces.store:TraceStore", "load")]),
        (traced("traces.store", "TraceStore.store", after=store_done),
         [("repro.traces.store:TraceStore", "store")]),
        (traced("traces.store", "append_aux", after=aux_done),
         [("repro.traces.store", "append_aux")]),
        (traced("predictors", "make_predictor"),
         [("repro.predictors.registry", "make_predictor")]),
        (traced("sim", "run_simulation", after=trace_records),
         [("repro.sim.engine", "run_simulation"),
          ("repro.sim.multi", "run_simulation"),
          (runner, "run_simulation")]),
        (traced("sim", "run_simulation_batch", after=batch_steps),
         [("repro.sim.multi", "run_simulation_batch"),
          (runner, "run_simulation_batch")]),
        (traced("sim", "run_simulation_array", after=trace_records),
         [("repro.sim.array", "run_simulation_array")]),
        (traced("experiments.runner", "get_result", _job_of_result),
         [(runner, "get_result"), ("repro.experiments.fig09", "get_result")]),
        (traced("experiments.runner", "run_batch", _job_of_batch),
         [(runner, "run_batch")]),
        (traced("experiments.runner", "peek_result", _job_of_result),
         [(runner, "peek_result")]),
        (traced("parallel", "run_jobs"),
         [("repro.parallel", "run_jobs"),
          ("repro.parallel.executor", "run_jobs")]),
        (traced("parallel", "LocalBackend.submit",
                lambda backend, task, *_, **__: _job_of_task(task),
                after=submitted),
         [("repro.parallel.backend.local:LocalBackend", "submit")]),
        (traced("parallel", "task", _job_of_task, worker_task=True),
         [("repro.parallel.executor", "_simulate_task")]),
        (traced("analysis", "characterize_trace", after=trace_records),
         [("repro.analysis.characterize", "characterize_trace")]),
    ]
    for family in ("tsl", "llbp", "gshare", "bimode", "percep"):
        name = f"{family}_columns"
        sites.append((traced("sim.columns", name, before=_aux_keys,
                             after=columns_done),
                      [("repro.sim.columns", name)]))
    for method in ("record_result", "record", "matches"):
        sites.append((traced("experiments.journal", f"RunJournal.{method}"),
                      [("repro.experiments.journal:RunJournal", method)]))
    # Import every owner before the first patch, so that no module can
    # bind an already-installed wrapper at import and be wrapped twice.
    for _, names in sites:
        for owner_path, _ in names:
            try:
                _resolve(owner_path)
            except (ImportError, AttributeError):
                pass  # reported by patch()
    for make, names in sites:
        patch(names, make, missing)


def main(argv) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/launch.py")
    parser.add_argument("--status", type=Path, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=Path, default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("workflow", choices=sorted(WORKFLOWS))
    parser.add_argument("args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    if args.seed:
        reseed(args.seed)
    accounting = Accounting(args.status, args.setup_only)
    accounting.install()
    recorder = None
    if args.trace is not None:
        recorder = Recorder(args.trace)
        install_tracing(recorder, accounting.missing)

    module = importlib.import_module(WORKFLOWS[args.workflow])
    sys.argv = [module.__file__, *args.args]
    code = 1
    try:
        code = module.main(args.args)
    finally:
        accounting.write()
        if recorder is not None:
            recorder.flush()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
