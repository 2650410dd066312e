"""Global history and folded-register consistency."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.bitops import fold_bits
from repro.predictors.history import GlobalHistory, HistorySet, HistorySpec


class TestHistorySpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            HistorySpec(0, 4, 4)
        with pytest.raises(ValueError):
            HistorySpec(4, 0, 4)


class TestGlobalHistory:
    def test_conditional_pushes_outcome(self):
        history = GlobalHistory()
        history.push_branch(0x1000, True, True)
        history.push_branch(0x1000, True, False)
        assert history.buffer.bit(0) == 0
        assert history.buffer.bit(1) == 1

    def test_unconditional_pushes_pc_bit(self):
        history = GlobalHistory()
        history.push_branch(0b100, False, True)   # (pc>>2)&1 = 1
        history.push_branch(0b1000, False, True)  # (pc>>2)&1 = 0
        assert history.buffer.bit(1) == 1
        assert history.buffer.bit(0) == 0

    def test_path_history_shifts_pc_bits(self):
        history = GlobalHistory()
        history.push_branch(0b100, True, True)
        assert history.path & 1 == 1
        history.push_branch(0b1000, True, True)
        assert history.path & 0b11 == 0b10


class TestHistorySet:
    @given(st.lists(st.tuples(st.integers(0, 2**20), st.booleans(), st.booleans()),
                    min_size=1, max_size=300))
    @settings(max_examples=30)
    def test_folds_match_reference(self, branches):
        history = GlobalHistory()
        specs = [HistorySpec(5, 4, 6), HistorySpec(17, 8, 9), HistorySpec(64, 10, 12)]
        folded = HistorySet(history, specs)
        for pc, is_cond, taken in branches:
            history.push_branch(pc, is_cond, taken)
        for i, spec in enumerate(specs):
            window = history.buffer.value(spec.length)
            assert folded.index_fold(i) == fold_bits(window, spec.length, spec.index_bits)
            assert folded.tag_fold(i) == fold_bits(window, spec.length, spec.tag_bits)
            assert folded.tag_fold2(i) == fold_bits(window, spec.length, spec.tag_bits - 1)

    def test_folds_tuple(self):
        history = GlobalHistory()
        folded = HistorySet(history, [HistorySpec(8, 4, 6)])
        history.push_branch(0x40, True, True)
        assert folded.folds(0) == (
            folded.index_fold(0), folded.tag_fold(0), folded.tag_fold2(0)
        )

    def test_reset(self):
        history = GlobalHistory()
        folded = HistorySet(history, [HistorySpec(8, 4, 6)])
        history.push_branch(0x40, True, True)
        folded.reset()
        assert folded.index_fold(0) == 0

    def test_multiple_consumers_share_stream(self):
        history = GlobalHistory()
        a = HistorySet(history, [HistorySpec(12, 6, 8)])
        b = HistorySet(history, [HistorySpec(12, 6, 8)])
        for i in range(50):
            history.push_branch(i * 4, True, i % 3 == 0)
        assert a.index_fold(0) == b.index_fold(0)
        assert a.tag_fold(0) == b.tag_fold(0)

