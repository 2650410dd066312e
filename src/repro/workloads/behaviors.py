"""Per-branch outcome models.

Each static conditional branch in a synthetic program owns a ``Behavior``
that decides its direction from the execution context.  The behaviours are
deterministic functions of program state (plus seeded noise), so a
predictor with enough capacity *can* learn them — which is exactly the
property the paper's limit study (Inf TAGE) depends on.
"""

from __future__ import annotations

from typing import List

from repro.common.rng import XorShift32

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """SplitMix64 finaliser: a high-quality deterministic bit mixer."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class ExecContext:
    """Mutable program state visible to branch behaviours.

    Attributes:
        rng: the workload's deterministic noise source.
        path_hash: rolling hash of the current call stack (function ids),
            i.e. the ground-truth "program context" of §IV.
        global_hist: the last 64 conditional-branch outcomes, newest in
            bit 0.
    """

    __slots__ = ("rng", "path_hash", "global_hist", "_path_stack", "_fid_stack")

    def __init__(self, rng: XorShift32) -> None:
        self.rng = rng
        self.path_hash = 0
        self.global_hist = 0
        self._path_stack: List[int] = [0]
        self._fid_stack: List[int] = [0]

    def push_call(self, function_id: int) -> None:
        self.path_hash = splitmix64(self.path_hash ^ (function_id + 1))
        self._path_stack.append(self.path_hash)
        self._fid_stack.append(function_id)

    def pop_call(self) -> None:
        if len(self._path_stack) <= 1:
            raise RuntimeError("call stack underflow")
        self._path_stack.pop()
        self.path_hash = self._path_stack[-1]
        self._fid_stack.pop()

    def partial_path(self, depth: int) -> int:
        """Hash of the ``depth`` innermost stack frames.

        Complex branches correlate with their *near* callers (the
        function and its immediate caller), not the whole stack — which
        is also what makes an RCR window of a few unconditional branches
        a sufficient context fingerprint (§IV).
        """
        value = 0
        for fid in self._fid_stack[-depth:]:
            value = splitmix64(value ^ (fid + 1))
        return value

    def record_outcome(self, taken: bool) -> None:
        self.global_hist = ((self.global_hist << 1) | (1 if taken else 0)) & _MASK64


class Behavior:
    """Base class: decides a conditional branch's direction."""

    def evaluate(self, branch_id: int, ctx: ExecContext) -> bool:
        raise NotImplementedError

    def reset(self) -> None:
        """Clear any per-branch state (between trace generations)."""


class BiasedBehavior(Behavior):
    """Taken with a fixed probability — the easy bulk of real code."""

    def __init__(self, taken_probability: float) -> None:
        if not 0.0 <= taken_probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        # Work in 1/4096 resolution so the rng path stays integer-only.
        self._threshold = int(round(taken_probability * 4096))

    def evaluate(self, branch_id: int, ctx: ExecContext) -> bool:
        return ctx.rng.below(4096) < self._threshold


class LocalPatternBehavior(Behavior):
    """Cycles through a fixed taken/not-taken pattern.

    Predictable from short history once the pattern has been observed;
    exercises TAGE's short-history tables.
    """

    def __init__(self, pattern: str) -> None:
        if not pattern or set(pattern) - {"T", "N"}:
            raise ValueError("pattern must be a non-empty string of T/N")
        self._pattern = [c == "T" for c in pattern]
        self._pos = 0

    def evaluate(self, branch_id: int, ctx: ExecContext) -> bool:
        taken = self._pattern[self._pos]
        self._pos = (self._pos + 1) % len(self._pattern)
        return taken

    def reset(self) -> None:
        self._pos = 0


class GlobalCorrelatedBehavior(Behavior):
    """Outcome copies the direction of the ``depth``-th most recent branch.

    This models the correlated branch *pairs* real code exhibits (the same
    condition tested twice, a flag set then checked): the information is
    literally a single bit already present in global history, so any
    global-history predictor whose history window reaches ``depth``
    outcomes can learn it with as many patterns as *distinct histories
    actually occur* — few, because most surrounding branches are strongly
    biased.  A per-branch polarity decorrelates different followers of the
    same leader.  ``noise`` flips the outcome with the given probability.
    """

    def __init__(self, depth: int, noise: float = 0.0, invert: bool = False) -> None:
        if not 1 <= depth <= 48:
            raise ValueError("depth must be in [1, 48]")
        self.depth = depth
        self.invert = invert
        self._noise = int(round(noise * 4096))

    def evaluate(self, branch_id: int, ctx: ExecContext) -> bool:
        taken = bool((ctx.global_hist >> (self.depth - 1)) & 1)
        if self.invert:
            taken = not taken
        if self._noise and ctx.rng.below(4096) < self._noise:
            taken = not taken
        return taken


class ContextCorrelatedBehavior(Behavior):
    """The paper's *complex branch*: outcome = f(call path, recent outcomes).

    The direction is a deterministic hash of the current call path and the
    last ``local_bits`` global outcomes.  Globally the branch needs one
    pattern per (call path × 2**local_bits) combination — hundreds for
    branches in shared helpers, which is what makes 64K TAGE thrash and
    Inf TAGE shine (§II-D) — but within one program context it needs at
    most 2**local_bits patterns, which is the context-locality property
    LLBP's storage organisation exploits (§IV).

    Both inputs are recoverable from global branch history (the call path
    through the unconditional-branch address bits the history embeds, the
    recent outcomes directly), so a history-based predictor with enough
    capacity *can* learn these branches.
    """

    def __init__(self, local_bits: int = 3, noise: float = 0.0,
                 path_depth: int = 2) -> None:
        if not 1 <= local_bits <= 6:
            raise ValueError("local_bits must be in [1, 6]")
        if not 1 <= path_depth <= 8:
            raise ValueError("path_depth must be in [1, 8]")
        self.local_bits = local_bits
        self.path_depth = path_depth
        self._mask = (1 << local_bits) - 1
        self._noise = int(round(noise * 4096))

    def evaluate(self, branch_id: int, ctx: ExecContext) -> bool:
        key = splitmix64(branch_id * 0x9E3779B9 ^ ctx.partial_path(self.path_depth))
        taken = bool(splitmix64(key ^ (ctx.global_hist & self._mask)) & 1)
        if self._noise and ctx.rng.below(4096) < self._noise:
            taken = not taken
        return taken


class RandomBehavior(Behavior):
    """Irreducible noise: taken with probability p, uncorrelated."""

    def __init__(self, taken_probability: float = 0.5) -> None:
        if not 0.0 <= taken_probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        self._threshold = int(round(taken_probability * 4096))

    def evaluate(self, branch_id: int, ctx: ExecContext) -> bool:
        return ctx.rng.below(4096) < self._threshold


class LoopTripBehavior:
    """Trip-count model for loops: base count plus a context-dependent part.

    The same loop iterates a different (but per-context fixed) number of
    times depending on where it was called from, which creates
    long-history loop-exit patterns that the loop predictor alone cannot
    fully capture.
    """

    def __init__(self, base: int, spread: int = 0, context_dependent: bool = True) -> None:
        if base < 1:
            raise ValueError("base trip count must be >= 1")
        if spread < 0:
            raise ValueError("spread must be >= 0")
        self.base = base
        self.spread = spread
        self.context_dependent = context_dependent

    def trip_count(self, loop_id: int, ctx: ExecContext) -> int:
        if self.spread == 0:
            return self.base
        if self.context_dependent:
            return self.base + splitmix64(loop_id ^ ctx.partial_path(2)) % (self.spread + 1)
        return self.base + ctx.rng.below(self.spread + 1)
