"""Retry policy: bounded exponential backoff with deterministic jitter.

The policy object carries every fault-tolerance knob the executor needs
— attempt budget, backoff shape, per-job timeout — and
:func:`backoff_delay` turns (attempt, policy) into a concrete sleep.
Every failed attempt, whether it raised, lost its child or missed its
deadline, is charged to its own task and spends one of its attempts.

Two properties are load-bearing and property-tested:

* **bounded** — no delay ever exceeds ``max_delay`` (a stuck retry loop
  must not turn into an unbounded sleep);
* **monotone non-decreasing** — later attempts never wait *less* than
  earlier ones, jitter included.  Jitter is multiplicative in
  ``[1, 1 + jitter]`` with ``jitter`` clamped to ``[0, 1]``; since the
  uncapped delay doubles between attempts, ``2 * d >= (1 + jitter) * d``
  keeps the jittered sequence monotone before the cap, and capping with
  a constant preserves monotonicity.

Jitter is *deterministic*: it is derived by hashing (key, attempt), not
drawn from a global RNG, so a given job backs off identically across
runs — reruns of a chaos test are reproducible — while different jobs
still spread their retries apart (the point of jitter).
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import warnings
from typing import Optional

#: Environment knobs (both optional; malformed values warn and fall back).
ENV_RETRIES = "REPRO_RETRIES"
ENV_TIMEOUT = "REPRO_JOB_TIMEOUT"


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Fault-tolerance knobs for one batch of simulation jobs."""

    #: Total attempts per job (first try included); >= 1.
    max_attempts: int = 3
    #: Backoff before the first retry, in seconds.
    base_delay: float = 0.25
    #: Hard cap on any single backoff sleep, in seconds.
    max_delay: float = 30.0
    #: Multiplicative jitter fraction, clamped to [0, 1].
    jitter: float = 0.5
    #: Per-job wall-clock timeout in seconds; ``None`` disables.  A task
    #: that misses it has its child killed and is charged one attempt.
    timeout: Optional[float] = None

    @classmethod
    def from_env(cls) -> "RetryPolicy":
        """Build a policy from ``REPRO_RETRIES`` and ``REPRO_JOB_TIMEOUT``;
        the backoff shape keeps its defaults.

        Like ``REPRO_JOBS``, these are user input reaching deep into a
        run: malformed values must degrade to the default, not raise.
        """
        return cls(
            max_attempts=max(1, _env_int(ENV_RETRIES, cls.max_attempts)),
            timeout=_env_timeout(),
        )


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        warnings.warn(f"{name}={raw!r} is not an integer; using {default}",
                      RuntimeWarning, stacklevel=3)
        return default


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return float(raw)
    except ValueError:
        warnings.warn(f"{name}={raw!r} is not a number; using {default}",
                      RuntimeWarning, stacklevel=3)
        return default


def _env_timeout() -> Optional[float]:
    value = _env_float(ENV_TIMEOUT, 0.0)
    return value if value > 0 else None


def _unit_jitter(key: object, attempt: int) -> float:
    """Deterministic pseudo-random fraction in [0, 1) from (key, attempt)."""
    digest = hashlib.blake2b(f"{key}|{attempt}".encode(),
                             digest_size=8).digest()
    return int.from_bytes(digest, "big") / float(1 << 64)


def backoff_delay(attempt: int, policy: RetryPolicy,
                  key: object = "") -> float:
    """Seconds to sleep before retry number ``attempt`` (1-based).

    ``key`` (typically the job) decorrelates different jobs' retries;
    the same (key, attempt) always yields the same delay.
    """
    if attempt < 1:
        raise ValueError(f"attempt must be >= 1, got {attempt}")
    jitter = min(1.0, max(0.0, policy.jitter))
    uncapped = policy.base_delay * (2.0 ** (attempt - 1))
    jittered = uncapped * (1.0 + jitter * _unit_jitter(key, attempt))
    return min(policy.max_delay, jittered)
