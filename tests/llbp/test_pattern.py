"""Patterns and pattern sets."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llbp.pattern import Pattern, PatternSet


def make_set(size=16, bucket=4):
    return PatternSet(size=size, bucket_size=bucket)


class TestValidation:
    def test_bucket_divides_size(self):
        with pytest.raises(ValueError):
            PatternSet(size=16, bucket_size=5)
        with pytest.raises(ValueError):
            PatternSet(size=0, bucket_size=1)


class TestAllocateAndFind:
    def test_allocate_then_match(self):
        ps = make_set()
        slot = ps.allocate(hash_slot=5, tag=0x1AB, taken=True)
        tags = [0] * 16
        tags[5] = 0x1AB
        found = ps.find_longest(tags)
        assert found == slot
        assert ps.taken(found) is True

    def test_no_match_returns_minus_one(self):
        ps = make_set()
        ps.allocate(hash_slot=5, tag=0x1AB, taken=True)
        assert ps.find_longest([0x999] * 16) == -1

    def test_longest_match_wins(self):
        ps = make_set()
        ps.allocate(hash_slot=2, tag=0x11, taken=True)    # bucket 0
        ps.allocate(hash_slot=9, tag=0x22, taken=False)   # bucket 2
        tags = [0] * 16
        tags[2] = 0x11
        tags[9] = 0x22
        found = ps.find_longest(tags)
        assert ps.hash_slot(found) == 9  # longer history wins
        assert ps.taken(found) is False

    def test_new_pattern_starts_weak(self):
        ps = make_set()
        slot = ps.allocate(hash_slot=1, tag=0x5, taken=True)
        assert ps.counter(slot) == 0
        slot = ps.allocate(hash_slot=2, tag=0x6, taken=False)
        assert ps.counter(slot) == -1

    def test_allocation_marks_dirty(self):
        ps = make_set()
        assert not ps.dirty
        ps.allocate(hash_slot=1, tag=0x5, taken=True)
        assert ps.dirty


class TestVictimSelection:
    def test_invalid_slots_preferred(self):
        ps = make_set()
        for i in range(3):
            ps.allocate(hash_slot=i, tag=0x10 + i, taken=True)
        assert ps.num_valid() == 3

    def test_least_confident_evicted_when_bucket_full(self):
        ps = make_set()
        # Fill bucket 0 (hash slots 0-3).
        for i in range(4):
            slot = ps.allocate(hash_slot=i, tag=0x10 + i, taken=True)
        # Strengthen all but the slot holding hash slot 2.
        for slot in range(4):
            if ps.hash_slot(slot) != 2:
                for _ in range(3):
                    ps.update_counter(slot, True)
        # Next allocation into bucket 0 must evict the weak pattern (hs 2).
        ps.allocate(hash_slot=1, tag=0x99, taken=True)
        hslots_tags = {(ps.hash_slot(s), ps.tags[s]) for s in range(4) if ps.valid[s]}
        assert (2, 0x12) not in hslots_tags
        assert (1, 0x99) in hslots_tags


class TestSortedInvariant:
    def test_initial_sorted(self):
        assert make_set().is_sorted()

    @given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 0x1FFF),
                              st.booleans()),
                    max_size=60))
    @settings(max_examples=60)
    def test_allocation_keeps_sorted(self, allocations):
        ps = make_set()
        for hash_slot, tag, taken in allocations:
            ps.allocate(hash_slot, tag, taken)
            assert ps.is_sorted()

    @given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 0x1FFF),
                              st.booleans()),
                    max_size=60))
    @settings(max_examples=30)
    def test_unbucketed_allocation_keeps_sorted(self, allocations):
        ps = PatternSet(size=8, bucket_size=8)
        for hash_slot, tag, taken in allocations:
            ps.allocate(hash_slot, tag, taken)
            assert ps.is_sorted()

    def test_find_longest_respects_sorted_order(self):
        """With two same-bucket matches the longer hash slot must win."""
        ps = make_set()
        ps.allocate(hash_slot=0, tag=0x1, taken=True)
        ps.allocate(hash_slot=3, tag=0x2, taken=False)
        tags = [0x999] * 16
        tags[0] = 0x1
        tags[3] = 0x2
        found = ps.find_longest(tags)
        assert ps.hash_slot(found) == 3


def sorted_allocate(ps, hash_slot, tag, taken):
    """The reference allocation: write the victim, then stable-sort the
    whole region by hash slot (invalid slots last) and rebuild ``vdesc``.

    ``PatternSet.allocate`` moves only the new pattern; every slot list
    and ``vdesc`` must come out as this sort leaves them.
    """
    if ps.bucket_size == ps.size:
        lo, hi = 0, ps.size
    else:
        lo = hash_slot // ps.bucket_size * ps.bucket_size
        hi = lo + ps.bucket_size
    victim = -1
    victim_conf = None
    for i in range(lo, hi):
        if not ps.valid[i]:
            victim = i
            break
        conf = abs(2 * ps.ctrs[i] + 1)
        if victim_conf is None or conf < victim_conf:
            victim, victim_conf = i, conf
    ps.valid[victim] = True
    ps.tags[victim] = tag
    ps.ctrs[victim] = 0 if taken else -1
    ps.hslots[victim] = hash_slot
    ps.dirty = True
    region = sorted(range(lo, hi), key=lambda i: (
        not ps.valid[i], ps.hslots[i] if ps.valid[i] else 0))
    for column in (ps.valid, ps.tags, ps.ctrs, ps.hslots):
        column[lo:hi] = [column[i] for i in region]
    ps.vdesc = [i for i in range(ps.size - 1, -1, -1) if ps.valid[i]]


#: (set size, bucket size): the evaluated bucketed design, then
#: unbucketed sets of the default size, ``ps=8`` and Fig 14's ``ps=32``.
GEOMETRIES = ((16, 4), (16, 16), (8, 8), (32, 32))

#: Allocations over few tags and all 16 hash slots, so (hash slot, tag)
#: pairs repeat, mixed with counter training on a slot, so victims are
#: picked by varied confidences.
OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("allocate"), st.integers(0, 15),
                  st.integers(0, 3), st.booleans()),
        st.tuples(st.just("train"), st.integers(0, 31), st.booleans(),
                  st.integers(1, 4))),
    max_size=80)


class TestAllocateMatchesSortedReference:
    @given(st.sampled_from(GEOMETRIES), OPERATIONS)
    @settings(max_examples=150)
    def test_same_slots_as_a_full_region_sort(self, geometry, operations):
        size, bucket = geometry
        subject = PatternSet(size=size, bucket_size=bucket)
        reference = PatternSet(size=size, bucket_size=bucket)
        for op, *args in operations:
            if op == "allocate":
                hash_slot, tag, taken = args
                slot = subject.allocate(hash_slot, tag, taken)
                sorted_allocate(reference, hash_slot, tag, taken)
                assert subject.pattern(slot) == Pattern(
                    valid=True, tag=tag, counter=0 if taken else -1,
                    hash_slot=hash_slot)
            else:
                slot, taken, times = args
                slot %= size
                if not subject.valid[slot]:
                    continue
                for _ in range(times):
                    subject.update_counter(slot, taken)
                    reference.update_counter(slot, taken)
            for name in ("valid", "tags", "ctrs", "hslots", "vdesc", "dirty"):
                assert getattr(subject, name) == getattr(reference, name), name


class TestCounters:
    def test_update_saturates(self):
        ps = make_set()
        slot = ps.allocate(hash_slot=1, tag=0x5, taken=True)
        for _ in range(10):
            ps.update_counter(slot, True)
        assert ps.counter(slot) == ps.ctr_hi
        for _ in range(20):
            ps.update_counter(slot, False)
        assert ps.counter(slot) == ps.ctr_lo

    def test_high_confidence_count(self):
        ps = make_set()
        assert ps.high_confidence_count() == 0
        slot = ps.allocate(hash_slot=1, tag=0x5, taken=True)
        for _ in range(5):
            ps.update_counter(slot, True)
        assert ps.high_confidence_count() == 1

    def test_high_confidence_saturates_at_cap(self):
        ps = make_set()
        for i in range(6):
            slot = ps.allocate(hash_slot=i % 16, tag=0x10 + i, taken=True)
            for _ in range(5):
                ps.update_counter(slot, True)
        assert ps.high_confidence_count(cap=3) == 3

    def test_pattern_view(self):
        ps = make_set()
        slot = ps.allocate(hash_slot=7, tag=0x42, taken=False)
        view = ps.pattern(slot)
        assert view.valid and view.tag == 0x42 and view.hash_slot == 7
        assert view.taken is False
        assert view.confidence == 1
