"""Reference interpreter: executes a planned program under a given PATH.

Produces the trace, checksum, and allocation statistics every backend's
emitted program must reproduce bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from .astgen import (
    Call,
    Contains,
    If,
    Insert,
    Loop,
    New,
    Program,
    Remove,
)

_MASK64 = (1 << 64) - 1

CHECKSUM_OFFSET = 14695981039346656037
CHECKSUM_PRIME = 1099511628211
OPCODES = {"new": 1, "insert": 2, "remove": 3, "contains": 4}
# event = (opcode << 48) + (var << 32) + (val << 16) + res, val and res cut to 16 bits
_OP_SHIFT, _VAR_SHIFT, _VAL_SHIFT, _FIELD = 48, 32, 16, 0xFFFF
# trace lines per piece of run_to_pieces' text, ~0.6 MB of churn's
PIECE_EVENTS = 1 << 14


class OracleInvariantError(RuntimeError):
    """Interpreter state violated an internal invariant: generator bug."""


@dataclass
class ExecConfig:
    path: int = 0
    debug_trace: bool = False


class HeapObject:
    __slots__ = ("id", "owner", "size", "counts")

    def __init__(self, id: int, owner: _Frame):
        self.id = id
        self.owner = owner  # the frame that allocated it, and the only one to free it
        self.size = 0
        self.counts: Dict[int, int] = {}


class TraceEvent(NamedTuple):
    op: str
    var: int
    val: int
    res: int


@dataclass
class RunStats:
    op_counts: Dict[str, int] = field(default_factory=dict)
    max_live: int = 0
    checksum: int = CHECKSUM_OFFSET


def checksum_update(cs: int, op: str, var: int, val: int, res: int) -> int:
    """cs * PRIME + event mod 2^64: n events map cs to cs * PRIME^n + a term of their own."""
    event = (
        (OPCODES[op] << _OP_SHIFT)
        + (var << _VAR_SHIFT)
        + ((val & _FIELD) << _VAL_SHIFT)
        + (res & _FIELD)
    )
    return (cs * CHECKSUM_PRIME + event) & _MASK64


def format_trace_event(event: TraceEvent) -> str:
    return f"OP kind={event.op} var={event.var} val={event.val} res={event.res}"


class _Line(str):
    """A statement's trace line by format_trace_event, var and res left as %s."""

    def __new__(cls, op: str, val: int) -> _Line:
        line = super().__new__(cls, format_trace_event(TraceEvent(op, "%s", val, "%s")) + "\n")
        line.op, line.val = op, val
        return line


def _broken(message: str):
    raise OracleInvariantError(message)


def _unusable(value, slot: int):
    _broken(f"use of unbound slot {slot}" if value is None else f"use of freed object {value.id}")


def _insert(obj: HeapObject, value: int) -> int:
    obj.counts[value] = obj.counts.get(value, 0) + 1
    obj.size += 1
    return obj.size


def _remove(obj: HeapObject, value: int) -> int:
    n = obj.counts.get(value)
    if not n:
        return 0
    obj.counts[value] = n - 1
    obj.size -= 1
    return 1


# (object, value) -> res for every heap container kind, each a multiset of
# values held as its size and a count per value; mutates the object
_MULTISET_OPS = {
    Insert: _insert,
    Remove: _remove,
    Contains: lambda obj, v: 1 if obj.counts.get(v) else 0,
}
# scalar: (step added to the slot's integer, res as a function of the old value)
_SCALAR_OPS = {
    Insert: (1, lambda v: v + 1),
    Remove: (-1, lambda v: 1 if v != 0 else 0),
    Contains: (0, lambda v: 1 if v == 0 else 0),
}


class _Frame:
    __slots__ = ("slots", "params", "saved", "owned")

    def __init__(self, slot_count: int, params: List[HeapObject]):
        self.slots: List[Optional[HeapObject]] = [None] * slot_count
        self.params = iter(params)  # the passed objects New has not yet bound
        self.saved: List[Optional[HeapObject]] = []  # shadowed bindings
        self.owned = 0  # objects this frame allocated and has not freed


def interpret(program: Program, cfg: Optional[ExecConfig] = None) -> Tuple[List[TraceEvent], RunStats]:
    """Run the entry function; returns (trace, stats).

    The trace list is populated only when cfg.debug_trace is set; the
    checksum and statistics are always computed. If with bit b runs its cond
    block first, then takes the then-branch iff (path >> b) & 1 is 1. Loop
    runs cond then body exactly trip_count times. Call passes the objects
    bound to the visible slots, which the callee borrows: inside it every
    New binds the next unconsumed passed object as an alias while one
    remains, else allocates fresh. An object belongs to the frame that
    allocated it, as in the emitted C runtime: a block's exit frees each
    slot it bound whose object its frame owns, so loop-iteration locals are
    freed every iteration and borrowed objects are left to their owner.
    Every run raises on an op on a freed object, on a second free, and on a
    return that leaves objects its function allocated still live.

    Scalar mode has no heap: slots are plain integer variables, parameters
    are passed by value and consumed as copies, and the trace's var field is
    the per-function slot ordinal instead of an allocation id.

    Each call compiles the program into closures, one per statement, block
    and function, each function at its first call site; nothing is kept
    between calls, and the run frees its closures as it returns or raises,
    leaving no cycle to the garbage collector. Compiling settles all that
    does not depend on container contents: the container kind, each If's
    arm (the arm not taken is never compiled), the slots each block binds,
    the op counts, and each event's static part: its checksum bits and,
    when traced, its trace line, built by format_trace_event with var and
    res left open. A Call to a callee that compiles to nothing checks its
    arguments alone. A traced event makes no object: it appends its line,
    var and res to one flat list, which is decoded into TraceEvents after
    the run (run_to_pieces formats it instead).

    A Call that passes no slots does the same every time but for the ids of
    the objects it allocates, all above last_id at entry. Its first call runs
    in full and keeps its checksum term, allocations, peak live count and
    range of trace records. The checksum is a polynomial fold, so a later
    call is one multiply-add on it, and when traced copies the range with
    the ids moved up: same events, checksum and statistics.
    """
    records, stats = _run(program, cfg or ExecConfig())
    return [TraceEvent(line.op, var, line.val, res)
            for line, var, res in zip(*[iter(records)] * 3)], stats


def _run(program: Program, cfg: ExecConfig) -> Tuple[list, RunStats]:
    """interpret's run; returns (records, stats), records flat as (line, var, res)*."""
    plan = program.plan
    scalar = plan.container_kind == "scalar"
    path = cfg.path & _MASK64
    live: Dict[int, HeapObject] = {}
    last_id = max_live = 0
    traced = cfg.debug_trace
    records: list = []
    record = records.extend
    cs = CHECKSUM_OFFSET
    # fid -> (its runner, None if it compiles to nothing; its op counts per call by opcode)
    compiled: Dict[int, Tuple[Optional[Callable[[list], None]], List[int]]] = {}
    # fid -> (A, base, allocs, peak, start, end) of its first no-arg call: its checksum
    # term, last_id at entry, objects allocated, peak live above entry, slice of records
    memos: Dict[int, Tuple[int, int, int, int, int, int]] = {}
    # vars of traced replays, one shared int each: slot ordinals, then ids as replays need them
    ids = list(range(max((fn.slot_count for fn in program.functions), default=0)))

    # Each op closure below folds its event into cs, and records it when
    # traced; hi (opcode and val) and line are fixed per statement.
    def new(slot: int, first: bool):
        # only a slot's first binding in a block is saved for the block's
        # exit; a same-block rebinding drops the old object unfreed, and its
        # function's return raises (the generator never emits one)
        hi, line = checksum_update(0, "new", 0, 0, 0), _Line("new", 0) if traced else None

        def op(f: _Frame) -> None:
            nonlocal cs, last_id, max_live
            value = next(f.params, None)  # a value copy in scalar
            res = 0
            if value is None:
                res = 1
                if scalar:
                    value = 0
                else:
                    last_id += 1
                    value = live[last_id] = HeapObject(last_id, f)
                    if len(live) > max_live:
                        max_live = len(live)
                    f.owned += 1
            if first:
                f.saved.append(f.slots[slot])
            f.slots[slot] = value
            var = slot if scalar else value.id
            cs = (cs * CHECKSUM_PRIME + hi + (var << _VAR_SHIFT) + res) & _MASK64
            if traced:
                record((line, var, res))
        return op

    def operand_op(st):
        slot, value, kind = st.slot, st.value, type(st).__name__.lower()
        hi, line = checksum_update(0, kind, 0, value, 0), _Line(kind, value) if traced else None
        if scalar:
            step, result = _SCALAR_OPS[type(st)]
            hi += slot << _VAR_SHIFT

            def op(f: _Frame) -> None:
                nonlocal cs
                v = f.slots[slot]
                if v is None:
                    _unusable(v, slot)
                f.slots[slot] = v + step
                res = result(v)
                cs = (cs * CHECKSUM_PRIME + hi + (res & _FIELD)) & _MASK64
                if traced:
                    record((line, slot, res))
            return op
        act = _MULTISET_OPS[type(st)]

        def op(f: _Frame) -> None:
            nonlocal cs
            obj = f.slots[slot]
            if obj is None or obj.id not in live:
                _unusable(obj, slot)
            var, res = obj.id, act(obj, value)
            cs = (cs * CHECKSUM_PRIME + hi + (var << _VAR_SHIFT) + (res & _FIELD)) & _MASK64
            if traced:
                record((line, var, res))
        return op

    def check_args(f: _Frame, avail: List[int]) -> None:
        for s in avail:
            arg = f.slots[s]
            if arg is None or not scalar and arg.id not in live:
                _unusable(arg, s)

    def call(run: Callable[[list], None], avail: List[int]):
        def op(f: _Frame) -> None:
            check_args(f, avail)
            run([f.slots[s] for s in avail])
        return op

    def no_arg_call(fid: int, run: Callable[[list], None]):
        # its n events map cs to cs * P^n + A + (d << 32) * C: A is the first call's term,
        # d how far last_id has moved since (each var moves by d), C the sum of P^k, k < n
        n = sum(compiled[fid][1])
        pn = pow(CHECKSUM_PRIME, n, 1 << 64)
        c = (pow(CHECKSUM_PRIME, n, (CHECKSUM_PRIME - 1) << 64) - 1) // (CHECKSUM_PRIME - 1)

        def op(f: _Frame) -> None:
            nonlocal cs, last_id, max_live
            memo = memos.get(fid)
            if memo is not None:
                a, base, allocs, peak, start, end = memo
                d = last_id - base
                max_live = max(max_live, len(live) + peak)
                cs = (cs * pn + a + (d << _VAR_SHIFT) * c) & _MASK64
                if traced:  # one int per object id, shared by every event that names it
                    ids.extend(range(len(ids), last_id + allocs + 1))
                    events = records[start:end]
                    events[1::3] = [ids[var + d] for var in events[1::3]]
                    record(events)
                last_id += allocs
                return
            base, outer_max, entry_cs, start = last_id, max_live, cs, len(records)
            max_live = len(live)
            run([])  # a call that leaks raises here, so live is back to its size at entry
            memos[fid] = ((cs - entry_cs * pn) & _MASK64, base, last_id - base,
                          max_live - len(live), start, len(records))
            max_live = max(max_live, outer_max)
        return op

    def scope(seq: list, bound: List[int]):
        unbind = bound[::-1]

        def run(f: _Frame) -> None:
            for op in seq:
                op(f)
            for slot in unbind:
                obj = f.slots[slot]
                if not scalar and obj.owner is f:  # a borrowed object is left to its owner
                    if live.pop(obj.id, None) is None:
                        _broken(f"use of freed object {obj.id}")
                    f.owned -= 1
                f.slots[slot] = f.saved.pop()
        return run

    def loop(seq: list):
        trips = range(plan.trip_count)

        def run(f: _Frame) -> None:
            for _ in trips:
                for op in seq:
                    op(f)
        return run

    def block(stmts, tally: List[int], n: int) -> list:
        """The closures of one block, which runs n times per call of its
        function; adds n per op to tally. A block that binds no slot has
        nothing to release at its exit, so its closures join its parent's."""
        seq: list = []
        bound: List[int] = []  # slots first bound in this block, in order
        for st in stmts:
            if isinstance(st, New):
                tally[OPCODES["new"]] += n
                first = st.slot not in bound
                seq.append(new(st.slot, first))
                if first:
                    bound.append(st.slot)
            elif isinstance(st, (Insert, Remove, Contains)):
                tally[OPCODES[type(st).__name__.lower()]] += n
                seq.append(operand_op(st))
            elif isinstance(st, If):
                arm = st.then if (path >> st.bit_index) & 1 else st.orelse
                seq += block(st.cond, tally, n) + block(arm or [], tally, n)
            elif isinstance(st, Loop):
                trips = n * plan.trip_count
                body = block(st.cond, tally, trips) + block(st.body, tally, trips)
                if body:
                    seq.append(loop(body))
            elif isinstance(st, Call):
                run, counts = function(st.callee_id)
                tally[:] = [t + n * c for t, c in zip(tally, counts)]
                avail = list(st.available_slots)
                if run:
                    seq.append(call(run, avail) if avail else no_arg_call(st.callee_id, run))
                elif avail:  # nothing to run, but the arguments are still checked
                    seq.append(lambda f, avail=avail: check_args(f, avail))
            else:
                seq.append(lambda f, st=st: _broken(f"unknown statement {st!r}"))
        return [scope(seq, bound)] if bound else seq

    def function(fid: int):
        """compiled[fid], made at the function's first call site."""
        if fid not in compiled:
            fn = program.functions[fid]
            tally = [0] * (max(OPCODES.values()) + 1)
            body = block(fn.body, tally, 1)

            def run(params: list) -> None:
                f = _Frame(fn.slot_count, params)
                for op in body:
                    op(f)
                if f.owned:
                    _broken(
                        f"ownership broken: function {fid} returns with "
                        f"{f.owned} objects it allocated still live"
                    )
            compiled[fid] = (run if body else None), tally
        return compiled[fid]

    try:
        run, tally = function(program.entry_id)
        if run:
            run([])
    finally:  # the closures that call themselves hold their own cells: free them now
        del function, block
    op_counts = {op: tally[code] for op, code in OPCODES.items()}
    return records, RunStats(op_counts, max_live, checksum=cs)


def run_to_pieces(program: Program, cfg: Optional[ExecConfig] = None) -> List[str]:
    """run_to_text's text in pieces: each of PIECE_EVENTS trace lines but
    the last, then the CHECKSUM line alone. Each piece joins its recorded
    lines into one template and fills its vars and res with one %; it makes
    no TraceEvent. Pieces are formatted from the end of the records, which
    shrink as the pieces grow, so the run's records and its text are never
    held whole at once. An untraced run is the CHECKSUM line alone."""
    cfg = cfg or ExecConfig()
    if not cfg.debug_trace:  # via interpret, so a hook on it counts untraced runs
        return [f"CHECKSUM {interpret(program, cfg)[1].checksum}\n"]
    records, stats = _run(program, cfg)
    pieces = [f"CHECKSUM {stats.checksum}\n"]
    size = 3 * PIECE_EVENTS
    while records:
        start = (len(records) - 1) // size * size
        tail = records[start:]
        del records[start:]
        template = "".join(tail[::3])
        del tail[::3]
        pieces.append(template % tuple(tail))
    pieces.reverse()
    return pieces


def run_to_text(program: Program, cfg: Optional[ExecConfig] = None) -> str:
    """Exactly what a compiled backend binary prints for this run: the
    pieces of run_to_pieces joined. An untraced run prints the checksum
    alone."""
    return "".join(run_to_pieces(program, cfg))
