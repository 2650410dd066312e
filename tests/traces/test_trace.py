"""Trace container and builder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces.trace import Trace, TraceBuilder
from repro.traces.types import BranchType

record_strategy = st.tuples(
    st.integers(min_value=0, max_value=2**40),        # pc
    st.sampled_from(list(BranchType)),                # type
    st.booleans(),                                    # taken (cond only)
    st.integers(min_value=0, max_value=2**40),        # target
    st.integers(min_value=1, max_value=30),           # gap
)


def build(records):
    builder = TraceBuilder("t")
    for pc, bt, taken, target, gap in records:
        if bt != BranchType.COND:
            taken = True
        builder.append(pc, bt, taken, target, gap)
    return builder.build()


def test_builder_roundtrip():
    trace = build([(0x10, BranchType.COND, True, 0x20, 2),
                   (0x30, BranchType.CALL, True, 0x40, 5)])
    assert len(trace) == 2
    assert trace.pcs.tolist() == [0x10, 0x30]
    assert trace.types.tolist() == [BranchType.COND, BranchType.CALL]
    assert trace.takens.tolist() == [1, 1]
    assert trace.targets.tolist() == [0x20, 0x40]
    assert trace.gaps.tolist() == [2, 5]


def test_num_instructions_is_gap_sum():
    trace = build([(0, BranchType.COND, True, 0, 3),
                   (4, BranchType.COND, False, 0, 7)])
    assert trace.num_instructions == 10


def test_builder_instruction_count_tracks_appends():
    """The builder's running count equals the gap sum after any run of
    ``append`` calls, including a rejected one."""
    builder = TraceBuilder("count")
    assert builder.num_instructions == 0
    builder.append(0x10, BranchType.COND, True, 0x20, 3)
    builder.append(0x30, BranchType.CALL, True, 0x40, 5)
    with pytest.raises(ValueError):
        builder.append(0x50, BranchType.JUMP, True, 0x60, 0)
    builder.append(0x50, BranchType.JUMP, True, 0x60, 1)
    builder.append(0x70, BranchType.COND, False, 0x80, 7)
    assert builder.num_instructions == int(builder.build().gaps.sum()) == 16


def test_num_conditional():
    trace = build([(0, BranchType.COND, True, 0, 1),
                   (4, BranchType.JUMP, True, 8, 1),
                   (8, BranchType.COND, False, 0, 1)])
    assert trace.num_conditional == 2


def test_iter_tuples_matches_records():
    records = [(0x10, BranchType.COND, False, 0x20, 2),
               (0x30, BranchType.RET, True, 0x40, 4)]
    trace = build(records)
    out = list(trace.iter_tuples())
    assert out[0] == (0x10, 0, 0, 0x20, 2)
    assert out[1] == (0x30, 3, 1, 0x40, 4)


def test_mismatched_arrays_rejected():
    with pytest.raises(ValueError):
        Trace(np.zeros(2), np.zeros(1), np.zeros(2), np.zeros(2), np.ones(2))


def test_builder_rejects_bad_gap():
    builder = TraceBuilder()
    with pytest.raises(ValueError):
        builder.append(0, BranchType.COND, True, 0, 0)


@given(st.lists(record_strategy, min_size=1, max_size=60))
@settings(max_examples=40)
def test_roundtrip_property(records):
    trace = build(records)
    assert len(trace) == len(records)
    assert trace.num_instructions == sum(r[4] for r in records)
    assert trace.pcs.tolist() == [r[0] for r in records]
    assert trace.types.tolist() == [r[1] for r in records]
    assert trace.targets.tolist() == [r[3] for r in records]
    assert trace.gaps.tolist() == [r[4] for r in records]
