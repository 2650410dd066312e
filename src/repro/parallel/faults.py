"""Deterministic fault injection for the parallel executor.

Chaos testing hook: a *fault plan* names which dispatched tasks fail
and how, so every failure path the executor claims to handle — a task
that raises, a task that hangs past its timeout, a worker that dies
mid-task — is exercisable deterministically in tests and in CI, with
no sleeps-and-hope races.

A plan is a comma-separated spec in the ``REPRO_FAULTS`` environment
variable::

    REPRO_FAULTS="raise@0,hang@2,kill@4"      # fault tasks 0, 2 and 4
    REPRO_FAULTS="raise@1x3"                  # task 1 fails 3 attempts

``mode@index[xTimes]``: *index* counts tasks actually dispatched to a
simulation (cache hits consume no index), in dispatch order, process-
wide.  A task is the uncached jobs of one ``run_jobs`` batch that share
a (workload, instructions) pair.  *times* (default 1) is how many
attempts of that task fault before it runs clean — ``x`` high enough
exhausts the retry budget.  Modes:

* ``raise`` — the attempt raises :class:`FaultInjected`;
* ``hang``  — the attempt stalls for ``REPRO_FAULT_HANG_SECONDS``
  (default 3600) before proceeding, standing in for a hung worker: the
  executor's task timeout must fire and kill that attempt's child;
* ``kill``  — the attempt's child process dies via SIGKILL, standing in
  for an OOM-kill or segfault: the executor must see the death, charge
  it to that task alone, and retry.

Each attempt runs in a child of its own, so a fault touches only the
task it was planned for: no other task is charged, retried or killed.

Faults are *assigned in the parent* (the dispatch counter lives here,
in parent module state) and handed to each attempt's child as an
explicit argument, so the plan stays deterministic whatever order the
children run in.  When the faulted attempt runs in the parent process
itself (with one worker, or once no child can be started), every mode
but ``raise`` downgrades to ``raise`` — chaos must not take down the
main process or stall the run it is testing.
"""

from __future__ import annotations

import os
import signal
import time
import warnings
from typing import Dict, NamedTuple, Optional

from repro import telemetry

#: Environment variable holding the fault plan spec.
ENV_VAR = "REPRO_FAULTS"

#: Environment variable: how long a ``hang`` fault stalls, in seconds.
ENV_HANG = "REPRO_FAULT_HANG_SECONDS"

MODES = ("raise", "hang", "kill")


class FaultInjected(RuntimeError):
    """Raised by an attempt the fault plan marked as failing."""


class FaultSpec(NamedTuple):
    """One planned fault: ``mode`` for the first ``times`` attempts."""

    mode: str
    times: int


class Assignment:
    """A task's share of the plan: hands out one fault mode per attempt."""

    __slots__ = ("mode", "remaining")

    def __init__(self, spec: Optional[FaultSpec]) -> None:
        self.mode = spec.mode if spec else None
        self.remaining = spec.times if spec else 0

    def take(self) -> Optional[str]:
        """Fault mode for the next attempt (``None`` once exhausted)."""
        if self.remaining <= 0:
            return None
        self.remaining -= 1
        return self.mode


def parse(spec: str) -> Dict[int, FaultSpec]:
    """Parse a plan spec; malformed tokens warn and are skipped."""
    plan: Dict[int, FaultSpec] = {}
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            mode, _, where = token.partition("@")
            times = 1
            if "x" in where:
                where, _, reps = where.partition("x")
                times = int(reps)
            index = int(where)
            if mode not in MODES or index < 0 or times < 1:
                raise ValueError(token)
        except ValueError:
            warnings.warn(f"{ENV_VAR}: ignoring malformed token {token!r} "
                          f"(want mode@index[xTimes], mode in {MODES})",
                          RuntimeWarning, stacklevel=2)
            continue
        plan[index] = FaultSpec(mode, times)
    return plan


# Parent-side plan state.  ``_env_plan`` caches the parsed env spec so
# a run does not re-parse (and re-warn) per task.  ``_sequence`` is the
# process-wide dispatch counter the plan's indices refer to.
_env_plan: Optional[Dict[int, FaultSpec]] = None
_env_value: Optional[str] = None
_sequence = 0


def reset() -> None:
    """Forget the parsed plan and restart the dispatch counter."""
    global _env_plan, _env_value, _sequence
    _env_plan = None
    _env_value = None
    _sequence = 0


def _plan() -> Dict[int, FaultSpec]:
    global _env_plan, _env_value
    env = os.environ.get(ENV_VAR, "")
    if env != _env_value:
        _env_value = env
        _env_plan = parse(env) if env.strip() else {}
    return _env_plan or {}


def assign_next() -> Assignment:
    """Claim the next dispatch index's fault assignment (parent only)."""
    global _sequence
    plan = _plan()
    index = _sequence
    _sequence = index + 1
    return Assignment(plan.get(index))


def hang_seconds() -> float:
    raw = os.environ.get(ENV_HANG, "").strip()
    try:
        return float(raw) if raw else 3600.0
    except ValueError:
        warnings.warn(f"{ENV_HANG}={raw!r} is not a number; using 3600",
                      RuntimeWarning, stacklevel=2)
        return 3600.0


def apply(mode: Optional[str], job: object, in_worker: bool) -> None:
    """Apply one attempt's fault (no-op for ``mode=None``).

    Called at the top of the simulation entry point, before any work or
    cache write happens, so a faulted attempt leaves no partial state.
    """
    if mode is None:
        return
    telemetry.emit("parallel.fault", mode=mode, in_worker=in_worker,
                   job=repr(job))
    if not in_worker and mode != "raise":
        # Downgrade: chaos may not SIGKILL or stall the main process.
        raise FaultInjected(f"injected {mode} (downgraded to raise "
                            f"in-process) for {job!r}")
    if mode == "raise":
        raise FaultInjected(f"injected raise for {job!r}")
    if mode == "hang":
        time.sleep(hang_seconds())
        return  # then proceed normally, like a real stall
    if mode == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    raise ValueError(f"unknown fault mode {mode!r}")
