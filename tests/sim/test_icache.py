"""L1-I model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.icache import InstructionCache, simulate_icache
from repro.traces.trace import TraceBuilder
from repro.traces.types import BranchType


def test_cold_miss_and_next_line_prefetch():
    cache = InstructionCache(size_kib=1, ways=2, line_bytes=64)
    cache.fetch_line(10)
    assert cache.demand_misses == 1
    assert cache.prefetch_fills == 1  # line 11 prefetched
    cache.fetch_line(11)
    assert cache.demand_misses == 1  # prefetch hit


def test_hit_after_fill():
    cache = InstructionCache(size_kib=1, ways=2)
    cache.fetch_line(5)
    misses = cache.demand_misses
    cache.fetch_line(5)
    assert cache.demand_misses == misses


def test_fetch_range_touches_all_lines():
    cache = InstructionCache(size_kib=1, ways=2, line_bytes=64)
    cache.fetch_range(0, 200)  # lines 0..3
    assert cache.demand_misses + cache.prefetch_fills >= 4


def test_capacity_eviction():
    cache = InstructionCache(size_kib=1, ways=1, line_bytes=64)  # 16 lines
    for line in range(0, 64, 16):  # all map to set 0
        cache.fetch_line(line)
    cache.fetch_line(0)
    assert cache.demand_misses >= 4


def small_cache():
    """1 KiB, 2 ways, 64-byte lines: 8 sets, line ``n`` in set ``n % 8``."""
    return InstructionCache(size_kib=1, ways=2, line_bytes=64)


def test_hit_refreshes_lru_order():
    cache = small_cache()
    for line in (0, 8, 0, 16):  # the hit on 0 leaves 8 least recent
        cache.fetch_line(line)
    misses = cache.demand_misses
    cache.fetch_line(0)
    assert cache.demand_misses == misses  # FIFO would have evicted 0
    cache.fetch_line(8)
    assert cache.demand_misses == misses + 1


def test_next_line_probe_does_not_refresh_lru():
    cache = small_cache()
    cache.fetch_line(1)
    cache.fetch_line(9)  # set 1 holds 1 (least recent) and 9
    fills = cache.prefetch_fills
    cache.fetch_line(0)  # probes line 1: present, so no fill
    assert cache.prefetch_fills == fills
    cache.fetch_line(17)  # evicts set 1's least recent line
    misses = cache.demand_misses
    cache.fetch_line(9)
    assert cache.demand_misses == misses
    cache.fetch_line(1)
    assert cache.demand_misses == misses + 1


def test_eviction_stays_in_one_set():
    cache = small_cache()
    cache.fetch_line(3)
    for line in (0, 8, 16, 24):  # set 0 only; 6 lines cached in all
        cache.fetch_line(line)
    misses = cache.demand_misses
    cache.fetch_line(3)
    assert cache.demand_misses == misses
    cache.fetch_line(0)  # evicted inside set 0, with room elsewhere
    assert cache.demand_misses == misses + 1


@given(st.lists(st.integers(0, 40), max_size=200))
@settings(max_examples=50)
def test_set_never_exceeds_its_ways(lines):
    cache = small_cache()
    for line in lines:
        cache.fetch_line(line)
        assert all(len(ways) <= cache.ways for ways in cache._sets)


@given(st.lists(st.integers(0, 40), min_size=1, max_size=100))
@settings(max_examples=50)
def test_fetched_line_is_always_present(lines):
    cache = small_cache()
    for line in lines:
        cache.fetch_line(line)
        misses = cache.demand_misses
        cache.fetch_line(line)
        assert cache.demand_misses == misses


def test_invalid_geometry():
    with pytest.raises(ValueError):
        InstructionCache(size_kib=0)


def test_zero_sets_or_ways_rejected():
    with pytest.raises(ValueError):
        InstructionCache(size_kib=1, ways=0)
    with pytest.raises(ValueError):
        InstructionCache(size_kib=1, line_bytes=2048)  # no whole line
    with pytest.raises(ValueError):
        InstructionCache(size_kib=1, ways=32)  # 16 lines, fewer than a set
    with pytest.raises(ValueError):
        InstructionCache(size_kib=1, ways=3)  # 16 lines do not split in 3


def make_trace(span=200_000):
    """A trace striding through a large code footprint."""
    builder = TraceBuilder("ic")
    pc = 0x10000
    for i in range(2000):
        pc = 0x10000 + (i * 1024) % span
        builder.append(pc, BranchType.JUMP, True, pc + 64, 8)
    return builder.build()


def test_simulate_icache_reports_traffic():
    result = simulate_icache(make_trace())
    assert result.instructions > 0
    assert result.demand_misses > 0
    assert result.bits_per_instruction > 0


def test_small_footprint_fits():
    builder = TraceBuilder("tiny")
    for i in range(2000):
        builder.append(0x100, BranchType.JUMP, True, 0x140, 4)
    big = simulate_icache(make_trace())
    small = simulate_icache(builder.build())
    assert small.bits_per_instruction < big.bits_per_instruction


def test_warmup_excluded():
    trace = make_trace()
    full = simulate_icache(trace)
    late = simulate_icache(trace, warmup_instructions=trace.num_instructions // 2)
    assert late.instructions < full.instructions
    assert late.demand_misses <= full.demand_misses
