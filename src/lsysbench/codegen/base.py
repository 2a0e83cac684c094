"""Shared codegen types and the one statement walker every backend renders with."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import List, Optional

from .. import astgen


class BackendError(Exception):
    """Bad backend registration or emit configuration."""


@dataclass(frozen=True)
class SourceFile:
    relative_path: str
    contents: str


@dataclass
class EmitConfig:
    backend: str
    container_kind: Optional[str] = None  # None: echo the program's plan
    split_files: bool = False
    debug_trace: bool = False  # baked default; --debug still works at runtime


_OP_NAMES = {astgen.Insert: "insert", astgen.Remove: "remove", astgen.Contains: "contains"}


def render_block(stmts: List[astgen.Stmt], syntax, depth: int = 0) -> List[str]:
    """Render a block with a per-language syntax: an object with an `indent`
    unit and the methods new(slot), free(slot), op(name, slot, value),
    if_(bit, cond, then, orelse), loop(k, cond, body) and call(callee,
    slots, k). Each returns a list of parts: a string is a line at the
    statement's depth, a list is a child block's rendered lines.

    Each binding is freed, in reverse, as its block ends. Children render in
    pre-order (If: cond, then, else; Loop: cond, body), If arms one level
    deeper and Loop blocks two. `k` numbers the loops, and the calls that
    pass slots, of one walk in pre-order; it is taken before recursing.
    """
    loops = count()
    calls = count()

    def block(stmts: List[astgen.Stmt], depth: int) -> List[str]:
        if not stmts:
            return []
        parts: list = []
        bound: List[int] = []
        for st in stmts:
            name = _OP_NAMES.get(type(st))
            if name is not None:
                parts += syntax.op(name, st.slot, st.value)
            elif isinstance(st, astgen.New):
                bound.append(st.slot)
                parts += syntax.new(st.slot)
            elif isinstance(st, astgen.If):
                cond = block(st.cond, depth + 1)
                then = block(st.then, depth + 1)
                orelse = None if st.orelse is None else block(st.orelse, depth + 1)
                parts += syntax.if_(st.bit_index, cond, then, orelse)
            elif isinstance(st, astgen.Loop):
                k = next(loops)
                parts += syntax.loop(k, block(st.cond, depth + 2), block(st.body, depth + 2))
            elif isinstance(st, astgen.Call):
                k = next(calls) if st.available_slots else None
                parts += syntax.call(st.callee_id, st.available_slots, k)
            else:
                raise BackendError("unknown statement type: %r" % (st,))
        for slot in reversed(bound):
            parts += syntax.free(slot)
        pad = syntax.indent * depth
        lines: List[str] = []
        for part in parts:
            if type(part) is str:
                lines.append(pad + part)
            else:
                lines += part
        return lines

    return block(stmts, depth)


class BraceSyntax:
    """Layout shared by the C-family syntaxes. A non-empty If cond and each
    non-empty Loop block get their own `{ ... }` scope, so their bindings end
    with them. Subclasses set `indent`, the headers and `new`/`op`/`call`."""

    fn_head = ""    # % function id; the body follows, then a closing brace
    if_head = ""    # % bit
    loop_head = ""  # % (k, k, trip count, k), k being the loop number

    def __init__(self, kind: str, trip_count: int):
        self.scalar = kind == "scalar"
        self.trip_count = trip_count

    def function(self, fn: astgen.FunctionDef) -> str:
        lines = [self.fn_head % fn.id] + render_block(fn.body, self, 1)
        return "\n".join(lines) + "\n}\n"

    def free(self, slot):
        return []  # garbage collected, or nothing on the heap

    def if_(self, bit, cond, then, orelse):
        parts = ["{", cond, "}"] if cond else []
        parts += [self.if_head % bit, then]
        if orelse is not None:
            parts += ["} else {", orelse]
        return parts + ["}"]

    def loop(self, k, cond, body):
        parts = [self.loop_head % (k, k, self.trip_count, k)]
        for blk in (cond, body):
            if blk:
                parts += [self.indent + "{", blk, self.indent + "}"]
        return parts + ["}"]
