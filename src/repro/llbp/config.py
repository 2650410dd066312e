"""LLBP configuration (paper §VI, scaled per DESIGN.md §1).

The evaluated design: 16 patterns per set in four buckets of four, 13-bit
pattern tags, 3-bit counters, a 7-way context directory, a 64-entry 4-way
pattern buffer, W=8 / D=4 context hashing over unconditional branches, and
a 6-cycle prefetch latency.  The number of pattern sets is divided by the
same CAPACITY_SCALE as the baseline predictors (paper: 14K sets / 512KB).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

from repro.predictors.presets import TAGE_HISTORY_LENGTHS

#: The 16 history-length slots of a pattern set (§VI).  Four lengths appear
#: twice ("starred"): same length, different hash salt.
LLBP_SLOT_LENGTHS: Tuple[int, ...] = (
    12, 26, 54, 54, 78, 78, 112, 112, 161, 161, 232, 336, 482, 695, 1444, 3000,
)


class ContextSource(enum.Enum):
    """Which branches feed the rolling context register (Fig 13)."""

    UNCONDITIONAL = "uncond"   # all unconditional branches (the paper's pick)
    CALL_RET = "callret"       # only calls and returns
    ALL = "all"                # every branch


@dataclass(frozen=True)
class LLBPConfig:
    """All knobs of the LLBP design."""

    # Pattern sets.
    patterns_per_set: int = 16
    buckets: int = 4
    bucketed: bool = True
    pattern_tag_bits: int = 13
    counter_bits: int = 3
    slot_lengths: Tuple[int, ...] = LLBP_SLOT_LENGTHS

    # Context directory / backing storage geometry.
    cd_set_bits: int = 9          # paper: 11 (2048 sets); scaled /4
    cd_ways: int = 7
    cid_bits: int = 14

    # Pattern buffer.
    pb_entries: int = 64
    pb_ways: int = 4

    # Context hashing (§V-C / §V-E3).
    context_window: int = 8       # W
    prefetch_distance: int = 4    # D
    context_source: ContextSource = ContextSource.UNCONDITIONAL
    position_shift: int = 2       # per-position PC shift in the CID hash

    # Prefetch timing.
    prefetch_latency_cycles: int = 6
    instructions_per_cycle: float = 1.75  # converts cycles to trace distance
    simulate_timing: bool = True          # False = LLBP-0Lat

    # Replacement policy of the context directory ("confidence" or "lru").
    cd_replacement: str = "confidence"

    # Training-policy deviations from the paper's §V-D description (see
    # DESIGN.md §4).  With ``weak_override_guard`` a newly-allocated
    # (weak-counter) LLBP pattern does not override an established TAGE
    # provider — mirroring TAGE's own use-alt-on-newly-allocated logic.
    # With ``exclusive_provider_training=False`` TAGE keeps training its
    # provider even when LLBP overrides, and LLBP trains its matching
    # pattern even when TAGE provides; the paper's exclusive policy is
    # available as an ablation (benchmarks/test_ablations.py) and is
    # harmful on the synthetic workloads, whose override-redundancy rate
    # is higher than the paper's.
    weak_override_guard: bool = True
    exclusive_provider_training: bool = False

    def __post_init__(self) -> None:
        if self.patterns_per_set < 1:
            raise ValueError("need at least one pattern per set")
        if self.bucketed:
            if self.patterns_per_set % self.buckets:
                raise ValueError("patterns_per_set must divide into buckets")
            if len(self.slot_lengths) != self.patterns_per_set:
                raise ValueError("slot_lengths must cover every pattern slot")
        if list(self.slot_lengths) != sorted(self.slot_lengths):
            raise ValueError("slot lengths must be non-decreasing")
        unknown = set(self.slot_lengths) - set(TAGE_HISTORY_LENGTHS)
        if unknown:
            raise ValueError(
                f"slot lengths {sorted(unknown)} not in the baseline TAGE ladder"
            )
        if self.context_window < 1 or self.prefetch_distance < 0:
            raise ValueError("invalid context window / prefetch distance")
        if self.cd_replacement not in ("confidence", "lru"):
            raise ValueError("cd_replacement must be 'confidence' or 'lru'")

    @property
    def num_pattern_sets(self) -> int:
        return (1 << self.cd_set_bits) * self.cd_ways

    @property
    def bucket_size(self) -> int:
        return self.patterns_per_set // self.buckets if self.bucketed else self.patterns_per_set

    @property
    def prefetch_latency_instructions(self) -> int:
        if not self.simulate_timing:
            return 0
        return int(round(self.prefetch_latency_cycles * self.instructions_per_cycle))

    @property
    def pattern_bits(self) -> int:
        """Bits per pattern: counter + tag + 2-bit history-length field."""
        return self.counter_bits + self.pattern_tag_bits + 2

    @property
    def pattern_set_bits(self) -> int:
        """Bits per pattern set (paper: 288 for the evaluated design)."""
        return self.patterns_per_set * self.pattern_bits

    @property
    def storage_bits(self) -> int:
        """Backing-storage capacity (the paper's "LLBP capacity")."""
        return self.num_pattern_sets * self.pattern_set_bits

    @property
    def cd_bits(self) -> int:
        """Context-directory capacity: tag + 2-bit replacement counter."""
        tag_bits = max(1, self.cid_bits - self.cd_set_bits)
        return self.num_pattern_sets * (tag_bits + 2 + 1)

    def zero_latency(self) -> "LLBPConfig":
        """The LLBP-0Lat variant of this configuration."""
        return _replace(self, simulate_timing=False)


def _replace(config: LLBPConfig, **changes) -> LLBPConfig:
    import dataclasses

    return dataclasses.replace(config, **changes)
