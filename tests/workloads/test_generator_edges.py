"""Interpreter edge cases: depth limits, indirect types, behavior reset."""

from repro.traces.types import BranchType
from repro.workloads.behaviors import BiasedBehavior, LocalPatternBehavior
from repro.workloads.generator import generate_trace
from repro.workloads.program import (
    CallStmt,
    ComputeStmt,
    CondStmt,
    Function,
    Program,
    assign_branch_ids,
)


def test_recursive_calls_bounded():
    """Self-recursive programs terminate via the call-depth cap."""
    f = Function(0, [CallStmt([0]), ComputeStmt(1)])
    program = Program([f], 0)
    assign_branch_ids(program)
    trace = generate_trace(program, 5_000, seed=1)
    # The stack unwinds: returns appear and depth never explodes.
    depth = 0
    max_depth = 0
    for bt in trace.types.tolist():
        if bt in (BranchType.CALL, BranchType.IND_CALL):
            depth += 1
        elif bt == BranchType.RET:
            depth -= 1
        max_depth = max(max_depth, depth)
    assert max_depth <= 64


def test_indirect_call_type_emitted():
    entry = Function(0, [CallStmt([1, 2])])
    program = Program([entry, Function(1, [ComputeStmt(1)]),
                       Function(2, [ComputeStmt(1)])], 0)
    assign_branch_ids(program)
    trace = generate_trace(program, 1_000, seed=1)
    types = set(trace.types.tolist())
    assert BranchType.IND_CALL in types
    assert BranchType.CALL not in types


def test_direct_call_type_emitted():
    entry = Function(0, [CallStmt([1])])
    program = Program([entry, Function(1, [ComputeStmt(1)])], 0)
    assign_branch_ids(program)
    trace = generate_trace(program, 1_000, seed=1)
    types = set(trace.types.tolist())
    assert BranchType.CALL in types
    assert BranchType.IND_CALL not in types


def test_behaviors_reset_between_generations():
    """Two generations from the same program are identical — stateful
    behaviours (pattern positions) must be reset."""
    pattern = LocalPatternBehavior("TTNTN")
    entry = Function(0, [CondStmt(pattern), ComputeStmt(2)])
    program = Program([entry], 0)
    assign_branch_ids(program)
    a = generate_trace(program, 2_000, seed=9)
    b = generate_trace(program, 2_000, seed=9)
    assert list(a.takens) == list(b.takens)


def test_entry_loops_forever():
    """The request loop restarts the entry function until the budget."""
    entry = Function(0, [CondStmt(BiasedBehavior(1.0)), ComputeStmt(4)])
    program = Program([entry], 0)
    assign_branch_ids(program)
    trace = generate_trace(program, 3_000, seed=1)
    # The single branch executes hundreds of times.
    assert len(trace) > 400
    assert len(set(trace.pcs.tolist())) == 1
