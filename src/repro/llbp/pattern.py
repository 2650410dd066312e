"""Patterns and pattern sets (§V-B, §V-D).

A pattern is (tag, prediction counter, history-length field); a pattern
set is a fixed-size group of patterns belonging to one program context.
Patterns are kept sorted by history length so the longest matching
pattern can be selected with the same cascade TAGE uses; with bucketing
enabled (the evaluated design) each group of four slots is restricted to
four consecutive history lengths, which is what lets the hardware store
the length field in two bits (§V-D).

The *hash slot* of a pattern indexes the configured list of (history
length, hash salt) combinations — 16 in the paper's design, four lengths
appearing twice with a modified hash ("starred" lengths).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence


@dataclass
class Pattern:
    """A materialised view of one pattern slot (for inspection/tests)."""

    valid: bool
    tag: int
    counter: int
    hash_slot: int

    @property
    def taken(self) -> bool:
        return self.counter >= 0

    @property
    def confidence(self) -> int:
        """Centered counter magnitude |2c + 1| (1 = weakest)."""
        return abs(2 * self.counter + 1)


class PatternSet:
    """One context's patterns, stored as parallel slot arrays."""

    __slots__ = ("size", "bucket_size", "ctr_lo", "ctr_hi",
                 "valid", "tags", "ctrs", "hslots", "dirty", "vdesc")

    def __init__(self, size: int, bucket_size: int, counter_bits: int = 3) -> None:
        if size < 1 or bucket_size < 1 or size % bucket_size:
            raise ValueError("bucket size must divide the set size")
        self.size = size
        self.bucket_size = bucket_size
        self.ctr_hi = (1 << (counter_bits - 1)) - 1
        self.ctr_lo = -(1 << (counter_bits - 1))
        self.valid = [False] * size
        self.tags = [0] * size
        self.ctrs = [0] * size
        self.hslots = list(range(size)) if bucket_size != size else [0] * size
        self.dirty = False
        #: Valid slot indices in descending order — the ``find_longest``
        #: scan order.  Sets are typically far from full, so iterating
        #: this instead of all slots skips the invalid tail; ``allocate``
        #: is the only mutation point for validity, so it owns the cache.
        self.vdesc: list = []

    # -- prediction ------------------------------------------------------------

    def find_longest(self, slot_tags: Sequence[int]) -> int:
        """Index of the longest matching pattern, or -1.

        ``slot_tags[h]`` is the computed tag for hash slot ``h``.  Because
        slots are kept sorted by history length, the right-most valid match
        is the longest one — the same multiplexer cascade as TAGE (§V-B).
        """
        tags = self.tags
        hslots = self.hslots
        for i in self.vdesc:
            if tags[i] == slot_tags[hslots[i]]:
                return i
        return -1

    def counter(self, slot: int) -> int:
        return self.ctrs[slot]

    def taken(self, slot: int) -> bool:
        return self.ctrs[slot] >= 0

    def hash_slot(self, slot: int) -> int:
        return self.hslots[slot]

    # -- training --------------------------------------------------------------

    def update_counter(self, slot: int, taken: bool) -> None:
        c = self.ctrs[slot]
        if taken:
            if c < self.ctr_hi:
                self.ctrs[slot] = c + 1
                self.dirty = True
        elif c > self.ctr_lo:
            self.ctrs[slot] = c - 1
            self.dirty = True

    def allocate(self, hash_slot: int, tag: int, taken: bool) -> int:
        """Insert a new pattern for ``hash_slot`` (§V-D steps 2-4).

        The victim is the least-confident pattern in the slot region
        allowed to hold this history length (the bucket, or the whole set
        when unbucketed); invalid slots are preferred.  The new pattern
        then moves to where a stable sort of the region by hash slot puts
        it: after every other valid pattern of a shorter hash slot and
        after those of its own hash slot that sat below the victim, with
        the invalid slots keeping their order at the back.  Returns the
        slot that holds the new pattern.
        """
        if self.bucket_size == self.size:
            lo, hi = 0, self.size
        else:
            bucket = hash_slot // self.bucket_size
            lo = bucket * self.bucket_size
            hi = lo + self.bucket_size

        valid, hslots = self.valid, self.hslots
        victim = -1
        victim_conf = None
        for i in range(lo, hi):
            if not valid[i]:
                victim = i
                break
            conf = abs(2 * self.ctrs[i] + 1)
            if victim_conf is None or conf < victim_conf:
                victim = i
                victim_conf = conf

        # The region is sorted, so the patterns that precede the new one
        # form a prefix of it once the victim is taken out.
        slot = lo
        for i in range(lo, hi):
            if i == victim:
                continue
            if (not valid[i] or hslots[i] > hash_slot
                    or (hslots[i] == hash_slot and i > victim)):
                break
            slot += 1
        gained = not valid[victim]
        for column, value in ((valid, True), (self.tags, tag),
                              (self.ctrs, 0 if taken else -1),
                              (hslots, hash_slot)):
            del column[victim]
            column.insert(slot, value)
        self.dirty = True
        if gained:
            self.vdesc = [i for i in range(self.size - 1, -1, -1) if valid[i]]
        return slot

    # -- replacement metadata ------------------------------------------------------

    def high_confidence_count(self, cap: int = 3) -> int:
        """Number of high-confidence patterns, saturated at ``cap``.

        This is the 2-bit replacement counter stored in the context
        directory (§V-D step 1).
        """
        count = 0
        for i in range(self.size):
            if self.valid[i]:
                c = self.ctrs[i]
                if c >= self.ctr_hi - 1 or c <= self.ctr_lo + 1:
                    count += 1
                    if count >= cap:
                        return cap
        return count

    def num_valid(self) -> int:
        return sum(self.valid)

    def pattern(self, slot: int) -> Pattern:
        return Pattern(
            valid=self.valid[slot],
            tag=self.tags[slot],
            counter=self.ctrs[slot],
            hash_slot=self.hslots[slot],
        )

    def is_sorted(self) -> bool:
        """Invariant check used by tests: valid slots ascend by hash slot."""
        if self.bucket_size == self.size:
            regions = [(0, self.size)]
        else:
            regions = [(b, b + self.bucket_size)
                       for b in range(0, self.size, self.bucket_size)]
        for lo, hi in regions:
            prev: Optional[int] = None
            seen_invalid = False
            for i in range(lo, hi):
                if not self.valid[i]:
                    seen_invalid = True
                    continue
                if seen_invalid:
                    return False  # valid pattern after an invalid slot
                if prev is not None and self.hslots[i] < prev:
                    return False
                prev = self.hslots[i]
        return True
