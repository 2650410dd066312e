"""Folded-history machinery: the incremental fold must equal the
reference fold for every update sequence — TAGE's correctness rests on it."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.bitops import FoldedHistory, HistoryBuffer, fold_bits


class TestFoldBits:
    def test_zero_width_rejected(self):
        assert fold_bits(0b1011, 4, 0) == 0

    def test_identity_when_width_covers_length(self):
        assert fold_bits(0b1011, 4, 8) == 0b1011

    def test_simple_fold(self):
        # 6 bits folded into 3: 0b101110 -> 0b110 ^ 0b101
        assert fold_bits(0b101110, 6, 3) == (0b110 ^ 0b101)

    def test_masks_bits_beyond_length(self):
        assert fold_bits(0b111100, 2, 4) == 0

    @given(st.integers(min_value=0, max_value=(1 << 40) - 1),
           st.integers(min_value=1, max_value=40),
           st.integers(min_value=1, max_value=16))
    def test_result_fits_width(self, bits, length, width):
        assert 0 <= fold_bits(bits, length, width) < (1 << width)


class TestHistoryBuffer:
    def test_push_and_read(self):
        buf = HistoryBuffer(capacity=8)
        for bit in (1, 0, 1, 1):
            buf.push(bit)
        assert buf.bit(0) == 1
        assert buf.bit(1) == 1
        assert buf.bit(2) == 0
        assert buf.bit(3) == 1

    def test_value_reconstructs_bits(self):
        buf = HistoryBuffer(capacity=16)
        for bit in (1, 0, 1, 1, 0):
            buf.push(bit)
        # newest at bit position 0: ages 0..4 = 0,1,1,0,1
        assert buf.value(5) == 0b10110

    def test_wraparound(self):
        buf = HistoryBuffer(capacity=4)
        for bit in (1, 1, 1, 1, 0, 0):
            buf.push(bit)
        assert buf.bit(0) == 0
        assert buf.bit(1) == 0
        assert buf.bit(2) == 1
        assert buf.bit(3) == 1

    def test_age_out_of_range(self):
        buf = HistoryBuffer(capacity=4)
        with pytest.raises(IndexError):
            buf.bit(4)
        with pytest.raises(IndexError):
            buf.bit(-1)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            HistoryBuffer(capacity=0)

    def test_clear(self):
        buf = HistoryBuffer(capacity=4)
        buf.push(1)
        buf.clear()
        assert buf.bit(0) == 0
        assert len(buf) == 0


class TestFoldedHistory:
    @given(st.lists(st.integers(min_value=0, max_value=1),
                    min_size=1, max_size=400),
           st.integers(min_value=1, max_value=64),
           st.integers(min_value=2, max_value=14))
    @settings(max_examples=60)
    def test_incremental_matches_reference(self, bits, length, width):
        """The O(1) incremental fold equals folding the window from scratch."""
        buf = HistoryBuffer(capacity=max(length + 1, 8))
        folded = FoldedHistory(length, width)
        for bit in bits:
            old = buf.bit(length - 1)
            buf.push(bit)
            folded.update(bit, old)
        assert folded.value == fold_bits(buf.value(length), length, width)

    def test_reset(self):
        folded = FoldedHistory(8, 4)
        folded.update(1, 0)
        assert folded.value != 0
        folded.reset()
        assert folded.value == 0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            FoldedHistory(-1, 4)
        with pytest.raises(ValueError):
            FoldedHistory(8, 0)

