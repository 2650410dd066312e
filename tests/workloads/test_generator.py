"""Trace interpreter."""

import pytest

from repro.traces.types import BranchType
from repro.workloads.behaviors import BiasedBehavior, LoopTripBehavior
from repro.workloads.generator import generate_trace
from repro.workloads.program import (
    CallStmt,
    ComputeStmt,
    CondStmt,
    Function,
    IfStmt,
    JumpStmt,
    LoopStmt,
    Program,
    assign_branch_ids,
)


def simple_program():
    leaf = Function(1, [CondStmt(BiasedBehavior(1.0)), ComputeStmt(2)])
    entry = Function(0, [
        ComputeStmt(3),
        CondStmt(BiasedBehavior(0.0)),
        CallStmt([1]),
        JumpStmt(),
    ])
    program = Program([entry, leaf], entry_function=0)
    assign_branch_ids(program)
    return program


def test_budget_respected():
    trace = generate_trace(simple_program(), 5_000, seed=1)
    assert trace.num_instructions >= 5_000
    # Overshoot is bounded by one branch gap.
    assert trace.num_instructions < 5_000 + 64


def test_determinism():
    a = generate_trace(simple_program(), 3_000, seed=5)
    b = generate_trace(simple_program(), 3_000, seed=5)
    assert len(a) == len(b)
    assert list(a.pcs) == list(b.pcs)
    assert list(a.takens) == list(b.takens)


def test_seed_changes_trace():
    program = Program([Function(0, [CondStmt(BiasedBehavior(0.5))])], 0)
    assign_branch_ids(program)
    a = generate_trace(program, 3_000, seed=1)
    b = generate_trace(program, 3_000, seed=2)
    assert list(a.takens) != list(b.takens)


def test_call_ret_pairing():
    trace = generate_trace(simple_program(), 4_000, seed=1)
    depth = 0
    for branch_type in trace.types.tolist():
        if branch_type in (BranchType.CALL, BranchType.IND_CALL):
            depth += 1
        elif branch_type == BranchType.RET:
            depth -= 1
        assert depth >= 0
    assert depth in (0, 1)  # the budget may cut inside one call


def test_call_targets_callee_entry():
    program = simple_program()
    trace = generate_trace(program, 2_000, seed=1)
    calls = trace.types == BranchType.CALL
    assert calls.any()
    assert (trace.targets[calls] == program.function(1).entry).all()


def test_ret_returns_after_call_site():
    program = simple_program()
    trace = generate_trace(program, 2_000, seed=1)
    call_pc = None
    for pc, branch_type, _taken, target, _gap in trace.iter_tuples():
        if branch_type == BranchType.CALL:
            call_pc = pc
        elif branch_type == BranchType.RET and call_pc is not None:
            assert target == call_pc + 4
            call_pc = None


def test_biased_behaviors_drive_directions():
    trace = generate_trace(simple_program(), 2_000, seed=1)
    program = simple_program()
    entry_cond_pc = program.function(0).body[1].pc
    leaf_cond_pc = program.function(1).body[0].pc
    conditional = trace.types == BranchType.COND
    for pc, taken in ((entry_cond_pc, 0), (leaf_cond_pc, 1)):
        here = conditional & (trace.pcs == pc)
        assert here.any()
        assert (trace.takens[here] == taken).all()


def test_loop_trip_counts():
    loop = LoopStmt(LoopTripBehavior(3, spread=0), [ComputeStmt(1)])
    program = Program([Function(0, [loop])], 0)
    assign_branch_ids(program)
    trace = generate_trace(program, 600, seed=1)
    # Per loop execution: back-edge taken twice then not-taken once.
    takens = [bool(taken) for taken in trace.takens.tolist()]
    for j in range(0, len(takens) - 3, 3):
        assert takens[j:j + 3] == [True, True, False]


def test_if_skips_body_when_taken():
    body = [IfStmt(BiasedBehavior(1.0), [CondStmt(BiasedBehavior(1.0))])]
    program = Program([Function(0, body)], 0)
    assign_branch_ids(program)
    trace = generate_trace(program, 500, seed=1)
    # Only the guard executes; the inner branch never appears.
    inner_pc = body[0].body[0].pc
    assert inner_pc not in trace.pcs.tolist()


def test_weighted_dispatch_prefers_heavy_callee():
    f1 = Function(1, [ComputeStmt(1)])
    f2 = Function(2, [ComputeStmt(1)])
    entry = Function(0, [CallStmt([1, 2], weights=[9, 1])])
    program = Program([entry, f1, f2], 0)
    assign_branch_ids(program)
    trace = generate_trace(program, 5_000, seed=3)
    calls = trace.targets[trace.types == BranchType.IND_CALL].tolist()
    heavy = sum(1 for t in calls if t == program.function(1).entry)
    assert heavy / len(calls) > 0.75


def test_invalid_budget():
    with pytest.raises(ValueError):
        generate_trace(simple_program(), 0)


def test_gap_accounting():
    trace = generate_trace(simple_program(), 2_000, seed=1)
    assert all(int(g) >= 1 for g in trace.gaps)
    # Entry body: 3 compute instrs before the first cond -> gap 4.
    assert int(trace.gaps[0]) == 4
