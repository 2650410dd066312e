"""Branch behaviour models."""

import pytest

from repro.common.rng import XorShift32
from repro.workloads.behaviors import (
    BiasedBehavior,
    ContextCorrelatedBehavior,
    ExecContext,
    GlobalCorrelatedBehavior,
    LocalPatternBehavior,
    LoopTripBehavior,
    RandomBehavior,
    splitmix64,
)


def fresh_ctx(seed=1):
    return ExecContext(XorShift32(seed))


class TestSplitmix:
    def test_deterministic(self):
        assert splitmix64(42) == splitmix64(42)

    def test_64bit(self):
        for x in (0, 1, 2**63, 2**64 - 1):
            assert 0 <= splitmix64(x) < 2**64

    def test_avalanche(self):
        a, b = splitmix64(1), splitmix64(2)
        assert bin(a ^ b).count("1") > 16


class TestExecContext:
    def test_call_stack(self):
        ctx = fresh_ctx()
        base = ctx.path_hash
        ctx.push_call(3)
        assert ctx.path_hash != base
        inner = ctx.path_hash
        ctx.push_call(5)
        ctx.pop_call()
        assert ctx.path_hash == inner
        ctx.pop_call()
        assert ctx.path_hash == base

    def test_underflow(self):
        with pytest.raises(RuntimeError):
            fresh_ctx().pop_call()

    def test_path_depends_on_order(self):
        a, b = fresh_ctx(), fresh_ctx()
        a.push_call(1)
        a.push_call(2)
        b.push_call(2)
        b.push_call(1)
        assert a.path_hash != b.path_hash

    def test_partial_path_ignores_deep_frames(self):
        a, b = fresh_ctx(), fresh_ctx()
        for ctx, leaf in ((a, 1), (b, 2)):
            ctx.push_call(leaf)
            ctx.push_call(7)
            ctx.push_call(8)
        assert a.partial_path(2) == b.partial_path(2)
        assert a.partial_path(3) != b.partial_path(3)
        assert a.path_hash != b.path_hash

    def test_record_outcome_shifts(self):
        ctx = fresh_ctx()
        ctx.record_outcome(True)
        ctx.record_outcome(False)
        assert ctx.global_hist & 0b11 == 0b10


class TestBiased:
    def test_extremes(self):
        ctx = fresh_ctx()
        always = BiasedBehavior(1.0)
        never = BiasedBehavior(0.0)
        assert all(always.evaluate(0, ctx) for _ in range(100))
        assert not any(never.evaluate(0, ctx) for _ in range(100))

    def test_calibration(self):
        ctx = fresh_ctx()
        b = BiasedBehavior(0.9)
        hits = sum(b.evaluate(0, ctx) for _ in range(5000))
        assert 0.85 < hits / 5000 < 0.95

    def test_invalid(self):
        with pytest.raises(ValueError):
            BiasedBehavior(1.5)


class TestLocalPattern:
    def test_cycles(self):
        b = LocalPatternBehavior("TTN")
        ctx = fresh_ctx()
        out = [b.evaluate(0, ctx) for _ in range(6)]
        assert out == [True, True, False, True, True, False]

    def test_reset(self):
        b = LocalPatternBehavior("TN")
        ctx = fresh_ctx()
        b.evaluate(0, ctx)
        b.reset()
        assert b.evaluate(0, ctx) is True

    def test_invalid(self):
        with pytest.raises(ValueError):
            LocalPatternBehavior("TX")
        with pytest.raises(ValueError):
            LocalPatternBehavior("")


class TestGlobalCorrelated:
    def test_copies_history_bit(self):
        b = GlobalCorrelatedBehavior(depth=3)
        ctx = fresh_ctx()
        for bit in (True, False, True):  # hist (newest first): 1,0,1
            ctx.record_outcome(bit)
        # depth=3 -> third most recent = True
        assert b.evaluate(0, ctx) is True
        ctx.record_outcome(False)  # now third most recent = False
        assert b.evaluate(0, ctx) is False

    def test_invert(self):
        ctx = fresh_ctx()
        ctx.record_outcome(True)
        assert GlobalCorrelatedBehavior(1, invert=True).evaluate(0, ctx) is False

    def test_noise_flips_sometimes(self):
        ctx = fresh_ctx()
        ctx.record_outcome(True)
        b = GlobalCorrelatedBehavior(1, noise=0.5)
        outcomes = {b.evaluate(0, ctx) for _ in range(100)}
        assert outcomes == {True, False}

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            GlobalCorrelatedBehavior(0)


class TestContextCorrelated:
    def test_deterministic_per_context(self):
        b = ContextCorrelatedBehavior(local_bits=2)
        a, c = fresh_ctx(), fresh_ctx(99)
        for ctx in (a, c):
            ctx.push_call(4)
            ctx.push_call(9)
            ctx.global_hist = 0b01
        assert b.evaluate(7, a) == b.evaluate(7, c)

    def test_depends_on_path(self):
        b = ContextCorrelatedBehavior(local_bits=1)
        outcomes = set()
        for leaf in range(30):
            ctx = fresh_ctx()
            ctx.push_call(leaf)
            ctx.push_call(1)
            outcomes.add(b.evaluate(7, ctx))
        assert outcomes == {True, False}

    def test_depends_on_recent_outcomes(self):
        b = ContextCorrelatedBehavior(local_bits=4)
        seen = set()
        for hist in range(16):
            ctx = fresh_ctx()
            ctx.push_call(1)
            ctx.global_hist = hist
            seen.add(b.evaluate(7, ctx))
        assert seen == {True, False}

    def test_path_depth_limits_sensitivity(self):
        b = ContextCorrelatedBehavior(local_bits=1, path_depth=2)
        a, c = fresh_ctx(), fresh_ctx()
        for ctx, leaf in ((a, 1), (c, 2)):
            ctx.push_call(leaf)
            ctx.push_call(5)
            ctx.push_call(6)
        assert b.evaluate(7, a) == b.evaluate(7, c)

    def test_invalid(self):
        with pytest.raises(ValueError):
            ContextCorrelatedBehavior(local_bits=0)
        with pytest.raises(ValueError):
            ContextCorrelatedBehavior(path_depth=0)


class TestRandom:
    def test_probability(self):
        ctx = fresh_ctx()
        b = RandomBehavior(0.25)
        hits = sum(b.evaluate(0, ctx) for _ in range(8000))
        assert 0.2 < hits / 8000 < 0.3


class TestLoopTrip:
    def test_fixed(self):
        trip = LoopTripBehavior(base=5, spread=0)
        assert trip.trip_count(1, fresh_ctx()) == 5

    def test_context_dependent_is_stable_per_path(self):
        trip = LoopTripBehavior(base=3, spread=6, context_dependent=True)
        ctx = fresh_ctx()
        ctx.push_call(4)
        counts = {trip.trip_count(9, ctx) for _ in range(10)}
        assert len(counts) == 1
        assert 3 <= counts.pop() <= 9

    def test_random_spread_varies(self):
        trip = LoopTripBehavior(base=3, spread=6, context_dependent=False)
        ctx = fresh_ctx()
        counts = {trip.trip_count(9, ctx) for _ in range(50)}
        assert len(counts) > 1

    def test_invalid(self):
        with pytest.raises(ValueError):
            LoopTripBehavior(base=0)
        with pytest.raises(ValueError):
            LoopTripBehavior(base=1, spread=-1)
