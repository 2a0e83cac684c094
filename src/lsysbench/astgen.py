"""Lowering of derived L-strings into executable generic programs.

Covers nonterminal pruning, extraction of CALL blocks into deduplicated
functions, PATH bit assignment for conditionals, visibility of variables at
call sites, and deterministic operand planning.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Union

from .grammar import (
    Construct,
    ItemSeq,
    NonTerminal,
    Terminal,
    canonical_serialize,
)

PATH_BITS = 64
CONTAINER_KINDS = ("array", "sortedList", "scalar")

LCG_MULT = 6364136228273018565
LCG_INC = 1442695040888963407
_MASK64 = (1 << 64) - 1


class Lcg:
    """64-bit linear congruential generator shared with the emitted runtimes.

    One step multiplies by LCG_MULT and adds LCG_INC mod 2^64; the emitted
    value is the new state shifted right by 33 (top 31 bits).
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next(self) -> int:
        self.state = (self.state * LCG_MULT + LCG_INC) & _MASK64
        return self.state >> 33


# ---------------------------------------------------------------------------
# statement types

@dataclass
class New:
    slot: Optional[int] = None


@dataclass
class Insert:
    slot: Optional[int] = None
    value: Optional[int] = None


@dataclass
class Remove:
    slot: Optional[int] = None
    value: Optional[int] = None


@dataclass
class Contains:
    slot: Optional[int] = None
    value: Optional[int] = None


@dataclass
class If:
    cond: List["Stmt"] = field(default_factory=list)
    then: List["Stmt"] = field(default_factory=list)
    orelse: Optional[List["Stmt"]] = None
    bit_index: int = -1      # wrapped into the 64 PATH bits
    bit_index_raw: int = -1  # before wrapping; structural checks use this


@dataclass
class Loop:
    cond: List["Stmt"] = field(default_factory=list)
    body: List["Stmt"] = field(default_factory=list)


@dataclass
class Call:
    callee_id: int
    available_slots: List[int] = field(default_factory=list)


Stmt = Union[New, Insert, Remove, Contains, If, Loop, Call]
OPERAND_STMTS = (Insert, Remove, Contains)


@dataclass
class FunctionDef:
    id: int
    canonical: str
    body: List[Stmt]
    max_bit_index: int = -1
    slot_count: int = 0


@dataclass
class OperandPlan:
    seed: int = 0
    value_range: int = 1000
    trip_count: int = 2
    container_kind: str = "array"

    def __post_init__(self):
        if self.value_range < 1:
            raise ValueError("value_range must be >= 1")
        if self.trip_count < 1:
            raise ValueError("trip_count must be >= 1")
        if self.container_kind not in CONTAINER_KINDS:
            raise ValueError(f"unknown container kind {self.container_kind!r}")


@dataclass
class Program:
    functions: List[FunctionDef]
    entry_id: int
    plan: OperandPlan = field(default_factory=OperandPlan)

    @property
    def entry(self) -> FunctionDef:
        return self.functions[self.entry_id]


def iter_statements(stmts: List[Stmt]) -> Iterator[Stmt]:
    """Pre-order walk: a statement, then its cond/then/else or cond/body."""
    for st in stmts:
        yield st
        if isinstance(st, If):
            yield from iter_statements(st.cond)
            yield from iter_statements(st.then)
            if st.orelse is not None:
                yield from iter_statements(st.orelse)
        elif isinstance(st, Loop):
            yield from iter_statements(st.cond)
            yield from iter_statements(st.body)


# ---------------------------------------------------------------------------
# pruning and call extraction

def prune_nonterminals(seq: ItemSeq) -> ItemSeq:
    """Drop leftover nonterminals everywhere; warn if any were present."""
    dropped = 0

    def prune(s: ItemSeq) -> ItemSeq:
        nonlocal dropped
        items = []
        for item in s.items:
            if isinstance(item, NonTerminal):
                dropped += 1
            elif isinstance(item, Construct):
                items.append(Construct(item.kind, tuple(prune(b) for b in item.blocks)))
            else:
                items.append(item)
        return ItemSeq(tuple(items))

    out = prune(seq)
    if dropped:
        warnings.warn(f"dropped {dropped} leftover nonterminal(s) before lowering")
    return out


_TERMINAL_STMTS = {"new": New, "insert": Insert, "remove": Remove, "contains": Contains}


def extract_functions(seq: ItemSeq, plan: Optional[OperandPlan] = None) -> Program:
    """Extract every CALL block into its own function, one per distinct
    canonical string; the residual top-level sequence becomes the entry
    function and always takes the highest id."""
    table: Dict[str, int] = {}
    functions: List[FunctionDef] = []

    def intern(block: ItemSeq) -> int:
        canon = canonical_serialize(block)
        fid = table.get(canon)
        if fid is not None:
            return fid
        body = lower_block(block)  # nested calls intern first: callee ids stay lower
        fid = len(functions)
        table[canon] = fid
        functions.append(FunctionDef(id=fid, canonical=canon, body=body))
        return fid

    def lower_block(block: ItemSeq) -> List[Stmt]:
        stmts: List[Stmt] = []
        for item in block.items:
            if isinstance(item, Terminal):
                stmts.append(_TERMINAL_STMTS[item.kind]())
            elif isinstance(item, Construct):
                if item.kind == "IF":
                    orelse = lower_block(item.blocks[2]) if len(item.blocks) == 3 else None
                    stmts.append(
                        If(
                            cond=lower_block(item.blocks[0]),
                            then=lower_block(item.blocks[1]),
                            orelse=orelse,
                        )
                    )
                elif item.kind == "LOOP":
                    if len(item.blocks) == 1:
                        stmts.append(Loop(cond=[], body=lower_block(item.blocks[0])))
                    else:
                        stmts.append(
                            Loop(cond=lower_block(item.blocks[0]), body=lower_block(item.blocks[1]))
                        )
                else:
                    stmts.append(Call(callee_id=intern(item.blocks[0])))
            else:
                raise ValueError(
                    f"nonterminal {item.name!r} survived pruning; run prune_nonterminals first"
                )
        return stmts

    entry_id = intern(seq)
    program = Program(functions=functions, entry_id=entry_id, plan=plan or OperandPlan())
    assert_call_invariants(program)
    return program


def assert_call_invariants(program: Program) -> None:
    """Dedup and acyclicity: every callee id is lower and its canonical
    string is a strict, strictly shorter substring of the caller's."""
    seen = set()
    for i, fn in enumerate(program.functions):
        assert fn.id == i
        assert fn.canonical not in seen
        seen.add(fn.canonical)
        for st in iter_statements(fn.body):
            if isinstance(st, Call):
                callee = program.functions[st.callee_id]
                assert callee.id < fn.id
                assert len(callee.canonical) < len(fn.canonical)
                assert callee.canonical in fn.canonical
    assert program.entry_id == len(program.functions) - 1


# ---------------------------------------------------------------------------
# PATH bit assignment

def assign_path_bits(fn: FunctionDef, trace: Optional[list] = None) -> FunctionDef:
    """Assign a PATH bit to every If with a counter stack.

    The stack starts as [1]. An If first walks its cond at the current
    level, takes bit (top - 1), and pushes top + 1; both branch arms walk
    under that one frame. On exit the child counter is popped and the new
    top becomes max(old top, child), so later siblings never reuse a bit
    assigned inside the subtree. Loops and calls never push.

    When `trace` is a list, every assign/join event is appended to it as a
    dict with the stack snapshot, matching the committed fixture tables.
    """
    stack = [1]
    max_raw = -1

    def walk(stmts: List[Stmt]) -> None:
        nonlocal max_raw
        for st in stmts:
            if isinstance(st, If):
                walk(st.cond)
                raw = stack[-1] - 1
                st.bit_index_raw = raw
                st.bit_index = raw % PATH_BITS
                max_raw = max(max_raw, raw)
                stack.append(stack[-1] + 1)
                if trace is not None:
                    trace.append({"event": "assign", "bit": raw, "stack_after": list(stack)})
                walk(st.then)
                if st.orelse is not None:
                    walk(st.orelse)
                child = stack.pop()
                stack[-1] = max(stack[-1], child)
                if trace is not None:
                    trace.append({"event": "join", "stack_after": list(stack)})
            elif isinstance(st, Loop):
                walk(st.cond)
                walk(st.body)

    walk(fn.body)
    fn.max_bit_index = max_raw
    if max_raw >= PATH_BITS:
        warnings.warn(
            f"function {fn.id} needs bit {max_raw}; indices wrap around the "
            f"{PATH_BITS} PATH bits"
        )
    return fn


def assign_all_path_bits(program: Program) -> Program:
    for fn in program.functions:
        assign_path_bits(fn)
    return program


# ---------------------------------------------------------------------------
# variable visibility and operand planning

def available_vars(fn: FunctionDef, call_site: Call) -> List[int]:
    """Slots visible at a call site, in definition order: every New that is a
    strict predecessor in the same statement list or in an enclosing list's
    prefix. Definitions inside sibling branches, cond blocks, or loop bodies
    do not escape."""
    result: Optional[List[int]] = None

    def walk(stmts: List[Stmt], inherited: List[int]) -> None:
        nonlocal result
        local: List[int] = []
        for st in stmts:
            if result is not None:
                return
            visible = inherited + local
            if st is call_site:
                result = visible
                return
            if isinstance(st, New):
                local.append(st.slot)
            elif isinstance(st, If):
                walk(st.cond, visible)
                walk(st.then, visible)
                if st.orelse is not None:
                    walk(st.orelse, visible)
            elif isinstance(st, Loop):
                walk(st.cond, visible)
                walk(st.body, visible)

    walk(fn.body, [])
    if result is None:
        raise ValueError("call site not found in this function")
    return result


def plan_operands(program: Program, plan: Optional[OperandPlan] = None) -> Program:
    """Return a new program whose slots and values are filled in; the input
    program is left unchanged.

    A single PRNG stream seeded with plan.seed drives functions in id order
    and statements in pre-order (If: cond, then, else; Loop: cond, body).
    Each New takes the next per-function slot ordinal. Each insert, remove,
    or contains first materializes a New right before itself when no slot is
    visible, then always draws twice: once for the target slot and once for
    the operand value.
    """
    plan = replace(program.plan if plan is None else plan)
    rng = Lcg(plan.seed)

    # Argument lists are evaluated left to right, which keeps the RNG order
    # given above.
    def plan_block(stmts: List[Stmt], inherited: List[int]) -> List[Stmt]:
        out: List[Stmt] = []
        local: List[int] = []
        for st in stmts:
            visible = inherited + local
            if isinstance(st, New):
                st = New(next(slots))
                local.append(st.slot)
            elif isinstance(st, OPERAND_STMTS):
                if not visible:
                    fresh = New(next(slots))
                    out.append(fresh)
                    local.append(fresh.slot)
                    visible = [fresh.slot]
                st = type(st)(visible[rng.next() % len(visible)], rng.next() % plan.value_range)
            elif isinstance(st, If):
                st = If(plan_block(st.cond, visible), plan_block(st.then, visible),
                        None if st.orelse is None else plan_block(st.orelse, visible),
                        st.bit_index, st.bit_index_raw)
            elif isinstance(st, Loop):
                st = Loop(plan_block(st.cond, visible), plan_block(st.body, visible))
            else:
                st = Call(st.callee_id, visible)
            out.append(st)
        return out

    functions = []
    for fn in sorted(program.functions, key=lambda f: f.id):
        slots = itertools.count()  # per-function slot ordinals
        body = plan_block(fn.body, [])
        functions.append(replace(fn, body=body, slot_count=next(slots)))
    return replace(program, functions=functions, plan=plan)


def verify_slot_safety(program: Program) -> None:
    """Standalone check that every operand slot and every call-site slot list
    agrees with an independent visibility walk."""
    for fn in program.functions:
        _verify_block(fn, fn.body, [])


def _verify_block(fn: FunctionDef, stmts: List[Stmt], inherited: List[int]) -> None:
    local: List[int] = []
    for st in stmts:
        visible = inherited + local
        if isinstance(st, New):
            assert st.slot is not None
            local.append(st.slot)
        elif isinstance(st, OPERAND_STMTS):
            assert st.slot in visible, f"slot {st.slot} not visible in function {fn.id}"
            assert st.value is not None
        elif isinstance(st, If):
            _verify_block(fn, st.cond, visible)
            _verify_block(fn, st.then, visible)
            if st.orelse is not None:
                _verify_block(fn, st.orelse, visible)
        elif isinstance(st, Loop):
            _verify_block(fn, st.cond, visible)
            _verify_block(fn, st.body, visible)
        else:
            assert st.available_slots == visible
            assert st.available_slots == available_vars(fn, st)


# ---------------------------------------------------------------------------
# one-call pipeline

def lower(seq: ItemSeq, plan: Optional[OperandPlan] = None) -> Program:
    """Full lowering pipeline: prune, extract, assign bits, plan operands."""
    program = extract_functions(prune_nonterminals(seq), plan)
    assign_all_path_bits(program)
    return plan_operands(program)
