"""Lowering of derived L-strings into executable generic programs.

Covers nonterminal pruning, extraction of CALL blocks into deduplicated
functions, PATH bit assignment for conditionals, visibility of variables at
call sites, and deterministic operand planning.
"""

from __future__ import annotations

import gc
import itertools
import warnings
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Union

from .grammar import Construct, ItemSeq, NonTerminal, SpecError, Terminal

PATH_BITS = 64
CONTAINER_KINDS = ("array", "sortedList", "scalar")

LCG_MULT = 6364136228273018565
LCG_INC = 1442695040888963407
_MASK64 = (1 << 64) - 1


class Lcg:
    """64-bit linear congruential generator that plans operands.

    It runs only here: the emitted sources carry each planned operand as a
    literal, so no generator runs in a compiled binary.

    One step multiplies by LCG_MULT and adds LCG_INC mod 2^64; `next`
    returns the new state shifted right by 33 (top 31 bits).
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next(self) -> int:
        self.state = (self.state * LCG_MULT + LCG_INC) & _MASK64
        return self.state >> 33


# ---------------------------------------------------------------------------
# statement types: a planned program holds one object per statement, so
# each has slots instead of a __dict__

@dataclass(slots=True)
class New:
    slot: Optional[int] = None


@dataclass(slots=True)
class Insert:
    slot: Optional[int] = None
    value: Optional[int] = None


@dataclass(slots=True)
class Remove:
    slot: Optional[int] = None
    value: Optional[int] = None


@dataclass(slots=True)
class Contains:
    slot: Optional[int] = None
    value: Optional[int] = None


@dataclass(slots=True)
class If:
    cond: List["Stmt"] = field(default_factory=list)
    then: List["Stmt"] = field(default_factory=list)
    orelse: Optional[List["Stmt"]] = None
    bit_index: int = -1      # wrapped into the 64 PATH bits
    bit_index_raw: int = -1  # before wrapping; structural checks use this


@dataclass(slots=True)
class Loop:
    cond: List["Stmt"] = field(default_factory=list)
    body: List["Stmt"] = field(default_factory=list)


@dataclass(slots=True)
class Call:
    callee_id: int
    available_slots: List[int] = field(default_factory=list)


Stmt = Union[New, Insert, Remove, Contains, If, Loop, Call]
OPERAND_STMTS = (Insert, Remove, Contains)


@dataclass
class FunctionDef:
    id: int
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
        if not 1 <= self.value_range <= 1 << 31:  # Lcg.next gives 31 bits
            raise ValueError(f"value_range must be in [1, 2^31], got {self.value_range}")
        if not 1 <= self.trip_count < 1 << 64:  # emitted as a uint64_t constant
            raise ValueError(f"trip_count must be in [1, 2^64), got {self.trip_count}")
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
    """Pre-order walk: a statement, then its cond/then/else or cond/body.

    One generator with a stack of open blocks, so a statement nested d
    blocks deep is not passed up through d generators."""
    stack = [iter(stmts)]
    while stack:
        st = next(stack[-1], None)
        if st is None:
            stack.pop()
            continue
        yield st
        if isinstance(st, If):
            stack.append(itertools.chain(st.cond, st.then, st.orelse or ()))
        elif isinstance(st, Loop):
            stack.append(itertools.chain(st.cond, st.body))


# ---------------------------------------------------------------------------
# pruning and call extraction

def prune_nonterminals(seq: ItemSeq) -> ItemSeq:
    """Drop leftover nonterminals everywhere; warn if any were present.

    Memoized on node identity, so a subtree that a hash-consed derivation
    shares is pruned once; one that holds no nonterminal is kept as is.
    The warning counts every occurrence of a dropped nonterminal."""
    out, dropped = _prune(seq, {})
    if dropped:
        warnings.warn(f"dropped {dropped} leftover nonterminal(s) before lowering")
    return out


def _prune(seq: ItemSeq, memo: Dict[int, tuple]) -> tuple:
    """(seq pruned, nonterminals dropped from it); memo maps id(seq) to that."""
    hit = memo.get(id(seq))
    if hit is None:
        items, dropped = [], 0
        for item in seq:
            if isinstance(item, NonTerminal):
                dropped += 1
                continue
            if isinstance(item, Construct):
                blocks = [_prune(b, memo) for b in item.blocks]
                inside = sum(n for _, n in blocks)
                if inside:
                    item = Construct(item.kind, tuple(b for b, _ in blocks))
                dropped += inside
            items.append(item)
        hit = memo[id(seq)] = (tuple(items) if dropped else seq, dropped)
    return hit


_TERMINAL_STMTS = {"new": New, "insert": Insert, "remove": Remove, "contains": Contains}


def extract_functions(seq: ItemSeq) -> Program:
    """Extract every CALL block into its own function, one per distinct
    block structure; the residual top-level sequence becomes the entry
    function and always takes the highest id.

    Each block is numbered by its structure, memoized on node identity,
    so a node of a hash-consed derivation is numbered once; the body of a
    function is lowered once."""
    extraction = _Extraction()
    entry_id = extraction.intern(seq)
    program = Program(functions=extraction.functions, entry_id=entry_id)
    assert_call_invariants(program)
    return program


class _Extraction:
    """The state of one extract_functions run. Methods rather than nested
    closures, which would hold one another (and the memos) in a reference
    cycle after the run, until the cyclic collector ran."""

    def __init__(self):
        self.numbers: Dict[int, int] = {}  # id(block) -> its structure's number
        self.structures: Dict[tuple, int] = {}  # structure -> number
        self.table: Dict[int, int] = {}  # number -> function id
        self.functions: List[FunctionDef] = []

    def number(self, block: ItemSeq) -> int:
        """A small int per distinct structure: two blocks get one number
        exactly when their items have the same terminal kinds and the same
        construct kinds over blocks of the same numbers. LOOP(x) is
        numbered as LOOP(, x), since both lower to one Loop."""
        n = self.numbers.get(id(block))
        if n is None:
            structure = []
            for item in block:
                if isinstance(item, Terminal):
                    structure.append(item.kind)
                elif isinstance(item, Construct):
                    pad = ((),) if item.kind == "LOOP" and len(item.blocks) == 1 else ()
                    structure.append((item.kind, *map(self.number, pad + item.blocks)))
                else:
                    raise SpecError(
                        f"nonterminal {item.name!r} survived pruning; run prune_nonterminals first")
            n = self.structures.setdefault(tuple(structure), len(self.structures))
            self.numbers[id(block)] = n
        return n

    def intern(self, block: ItemSeq) -> int:
        n = self.number(block)
        fid = self.table.get(n)
        if fid is None:
            body = self.lower_block(block)  # nested calls intern first: callee ids stay lower
            fid = self.table[n] = len(self.functions)
            self.functions.append(FunctionDef(id=fid, body=body))
        return fid

    def lower_block(self, block: ItemSeq) -> List[Stmt]:
        """The statements of a numbered block, so one holding no nonterminal."""
        lower_block = self.lower_block
        stmts: List[Stmt] = []
        for item in block:
            if isinstance(item, Terminal):
                stmts.append(_TERMINAL_STMTS[item.kind]())
            elif item.kind == "IF":
                orelse = lower_block(item.blocks[2]) if len(item.blocks) == 3 else None
                stmts.append(If(cond=lower_block(item.blocks[0]),
                                then=lower_block(item.blocks[1]), orelse=orelse))
            elif item.kind == "LOOP":
                cond = lower_block(item.blocks[0]) if len(item.blocks) == 2 else []
                stmts.append(Loop(cond=cond, body=lower_block(item.blocks[-1])))
            else:
                stmts.append(Call(callee_id=self.intern(item.blocks[0])))
        return stmts


def assert_call_invariants(program: Program) -> None:
    """Ids run 0, 1, ... in order, every callee id is lower than its
    caller's (so the call graph is acyclic), and the entry comes last."""
    for i, fn in enumerate(program.functions):
        assert fn.id == i
        for st in iter_statements(fn.body):
            if isinstance(st, Call):
                assert st.callee_id < fn.id
    assert program.entry_id == len(program.functions) - 1


# ---------------------------------------------------------------------------
# PATH bit assignment

def assign_path_bits(fn: FunctionDef) -> FunctionDef:
    """Number the function's Ifs 0, 1, ... in one pre-order walk: an If's
    cond first, then the If, then its arms; a Loop walks its cond, then its
    body. An If inside a CALL belongs to the callee, which numbers from 0.
    The raw number wraps into the 64 PATH bits."""
    bits = itertools.count()
    _number_ifs(fn.body, bits)
    fn.max_bit_index = next(bits) - 1
    if fn.max_bit_index >= PATH_BITS:
        warnings.warn(
            f"function {fn.id} needs bit {fn.max_bit_index}; indices wrap around the "
            f"{PATH_BITS} PATH bits"
        )
    return fn


def _number_ifs(stmts: List[Stmt], bits: Iterator[int]) -> None:
    for st in stmts:
        if isinstance(st, If):
            _number_ifs(st.cond, bits)
            st.bit_index_raw = raw = next(bits)
            st.bit_index = raw % PATH_BITS
            _number_ifs(st.then, bits)
            if st.orelse is not None:
                _number_ifs(st.orelse, bits)
        elif isinstance(st, Loop):
            _number_ifs(st.cond, bits)
            _number_ifs(st.body, bits)


def assign_all_path_bits(program: Program) -> Program:
    for fn in program.functions:
        assign_path_bits(fn)
    return program


# ---------------------------------------------------------------------------
# variable visibility and operand planning

def plan_operands(program: Program, plan: OperandPlan) -> Program:
    """Fill in the program's slots and values under `plan`, in place, and
    return it. Planning a planned program again plans it afresh.

    A single PRNG stream seeded with plan.seed drives functions in id order
    and statements in pre-order (If: cond, then, else; Loop: cond, body).
    Each New takes the next per-function slot ordinal. Each insert, remove,
    or contains first materializes a New right before itself when no slot is
    visible, then always draws twice: once for the target slot and once for
    the operand value.
    """
    rng = Lcg(plan.seed)

    def plan_block(stmts: List[Stmt], visible: List[int]) -> List[Stmt]:
        """Plan stmts with `visible` holding the slots visible on entry; the
        block's own News append to it and are dropped again on exit."""
        entry = len(visible)
        out: List[Stmt] = []
        for st in stmts:
            if isinstance(st, New):
                st.slot = next(slots)
                visible.append(st.slot)
            elif isinstance(st, OPERAND_STMTS):
                if not visible:
                    fresh = New(next(slots))
                    out.append(fresh)
                    visible.append(fresh.slot)
                st.slot = visible[rng.next() % len(visible)]
                st.value = rng.next() % plan.value_range
            elif isinstance(st, If):
                st.cond = plan_block(st.cond, visible)
                st.then = plan_block(st.then, visible)
                if st.orelse is not None:
                    st.orelse = plan_block(st.orelse, visible)
            elif isinstance(st, Loop):
                st.cond = plan_block(st.cond, visible)
                st.body = plan_block(st.body, visible)
            else:
                st.available_slots = visible[:]
            out.append(st)
        del visible[entry:]
        return out

    for fn in program.functions:
        slots = itertools.count()  # per-function slot ordinals
        fn.body = plan_block(fn.body, [])
        fn.slot_count = next(slots)
    program.plan = plan
    return program


# ---------------------------------------------------------------------------
# one-call pipeline

def lower(seq: ItemSeq, plan: Optional[OperandPlan] = None) -> Program:
    """Full lowering pipeline: prune, extract, assign bits, plan operands.

    The cyclic collector is paused meanwhile, and left as the caller had it:
    lowering allocates statement objects by the million, and each full
    collection walks every one built so far to free no cycle (stress g=16
    lowers in 0.8 s instead of 3.4 s)."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        program = extract_functions(prune_nonterminals(seq))
        assign_all_path_bits(program)
        return plan_operands(program, plan or OperandPlan())
    finally:
        if was_enabled:
            gc.enable()
