"""Trace generation: interpret a synthetic program into a branch trace.

The interpreter walks the program's statements, consulting each branch's
behaviour for directions and the seeded RNG for indirect-call dispatch,
and appends one record per retired branch to a
:class:`~repro.traces.trace.TraceBuilder`.  The entry function is
re-executed until the instruction budget is reached, which models a
server's request loop.
"""

from __future__ import annotations

from typing import Optional

from repro.common.rng import XorShift32
from repro.traces.trace import Trace, TraceBuilder
from repro.traces.types import BranchType
from repro.workloads.behaviors import Behavior, ExecContext
from repro.workloads.program import (
    INSTR_BYTES,
    CallStmt,
    ComputeStmt,
    CondStmt,
    IfStmt,
    JumpStmt,
    LoopStmt,
    Program,
    Stmt,
)

_MAX_CALL_DEPTH = 64


class _BudgetExhausted(Exception):
    """Raised internally when the instruction budget is consumed."""


class _Interpreter:
    def __init__(self, program: Program, budget: int, seed: int,
                 builder: TraceBuilder) -> None:
        self.program = program
        self.budget = budget
        self.builder = builder
        self.rng = XorShift32(seed)
        self.ctx = ExecContext(XorShift32(seed ^ 0x5DEECE66))
        self.instructions = 0
        self._gap = 0  # instructions since the last emitted branch

    # -- record emission ---------------------------------------------------

    def _emit(self, pc: int, branch_type: BranchType, taken: bool,
              target: int) -> None:
        gap = self._gap + 1
        self._gap = 0
        self.instructions += gap
        self.builder.append(pc, branch_type, taken, target, gap)
        if self.instructions >= self.budget:
            raise _BudgetExhausted

    def _compute(self, instrs: int) -> None:
        self._gap += instrs
        # Straight-line code alone can't exhaust the budget mid-statement;
        # the check at branch boundaries keeps gaps consistent.

    # -- statement execution -----------------------------------------------

    def run(self) -> None:
        entry = self.program.function(self.program.entry_function)
        try:
            while True:
                self._execute_body(entry.body, depth=0)
        except _BudgetExhausted:
            pass

    def _execute_body(self, body, depth: int) -> None:
        for stmt in body:
            self._execute(stmt, depth)

    def _execute(self, stmt: Stmt, depth: int) -> None:
        if isinstance(stmt, ComputeStmt):
            self._compute(stmt.instrs)
        elif isinstance(stmt, CondStmt):
            taken = stmt.behavior.evaluate(stmt.branch_id, self.ctx)
            self.ctx.record_outcome(taken)
            self._emit(stmt.pc, BranchType.COND, taken, stmt.target)
        elif isinstance(stmt, IfStmt):
            taken = stmt.behavior.evaluate(stmt.branch_id, self.ctx)
            self.ctx.record_outcome(taken)
            self._emit(stmt.pc, BranchType.COND, taken, stmt.target)
            if not taken:
                self._execute_body(stmt.body, depth)
        elif isinstance(stmt, LoopStmt):
            trips = stmt.trip.trip_count(stmt.branch_id, self.ctx)
            for i in range(trips):
                self._execute_body(stmt.body, depth)
                taken = i + 1 < trips  # back-edge taken while continuing
                self.ctx.record_outcome(taken)
                self._emit(stmt.pc, BranchType.COND, taken,
                           stmt.target if taken else stmt.pc + INSTR_BYTES)
        elif isinstance(stmt, CallStmt):
            self._execute_call(stmt, depth)
        elif isinstance(stmt, JumpStmt):
            self._emit(stmt.pc, BranchType.JUMP, True, stmt.target)
        else:  # pragma: no cover - exhaustive over Stmt
            raise TypeError(f"unknown statement {stmt!r}")

    def _execute_call(self, stmt: CallStmt, depth: int) -> None:
        if depth >= _MAX_CALL_DEPTH:
            # Bounded model: skip calls past the depth limit (real servers
            # bottom out too; the builder never builds graphs this deep).
            self._compute(1)
            return
        callee_id = self._dispatch(stmt)
        callee = self.program.function(callee_id)
        branch_type = BranchType.IND_CALL if stmt.is_indirect else BranchType.CALL
        self._emit(stmt.pc, branch_type, True, callee.entry)
        self.ctx.push_call(callee_id)
        try:
            self._execute_body(callee.body, depth + 1)
            self._emit(callee.return_pc, BranchType.RET, True,
                       stmt.pc + INSTR_BYTES)
        finally:
            self.ctx.pop_call()

    def _dispatch(self, stmt: CallStmt) -> int:
        if not stmt.is_indirect:
            return stmt.callees[0]
        if stmt.weights is None:
            return stmt.callees[self.rng.below(len(stmt.callees))]
        total = sum(stmt.weights)
        pick = self.rng.below(total)
        for callee, weight in zip(stmt.callees, stmt.weights):
            pick -= weight
            if pick < 0:
                return callee
        return stmt.callees[-1]  # pragma: no cover - defensive


def _reset_behaviors(program: Program) -> None:
    def walk(body) -> None:
        for stmt in body:
            behavior: Optional[Behavior] = getattr(stmt, "behavior", None)
            if behavior is not None:
                behavior.reset()
            inner = getattr(stmt, "body", None)
            if inner is not None:
                walk(inner)

    for fn in program.functions:
        walk(fn.body)


def generate_trace(program: Program, instructions: int, seed: int = 1,
                   name: str = "synthetic") -> Trace:
    """Interpret ``program`` for ``instructions`` retired instructions.

    The result is deterministic in ``(program, instructions, seed)``.
    """
    if instructions <= 0:
        raise ValueError("instruction budget must be positive")
    _reset_behaviors(program)
    builder = TraceBuilder(name=name)
    _Interpreter(program, instructions, seed, builder).run()
    return builder.build()
