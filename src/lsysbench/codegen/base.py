"""Shared codegen types, and the base class of every backend: its file
layout and the one statement walker, ``BraceSyntax.render``."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .. import astgen


class BackendError(Exception):
    """An unknown backend id, or a program a backend cannot emit."""


@dataclass(frozen=True)
class SourceFile:
    relative_path: str
    contents: str


@dataclass
class EmitConfig:
    backend: str
    split_files: bool = False
    debug_trace: bool = False  # baked default; --debug still works at runtime


# Both emitted mains accept PATH only as [0-9]+ below 2^64; on anything else
# they print this (a printf format for the argument) and exit 2.
PATH_ERROR = "error: PATH must be a decimal integer in [0, 2^64), got '%s'"
# Likewise for any argument after PATH but --debug.
ARG_ERROR = "error: unexpected argument '%s'; usage: [PATH] [--debug]"

_OP_NAMES = {astgen.Insert: "insert", astgen.Remove: "remove", astgen.Contains: "contains"}


class BraceSyntax:
    """Files and blocks shared by the C-family backends.

    A subclass is a backend, listed as is in `codegen.BACKENDS`: the
    classmethod `emit(program, cfg)` builds one instance per program and
    returns its `files(cfg)`. Those are `main.<extension>` (the runtime,
    each function that --split-files leaves there, and `main()`), plus one
    `f<id>.<extension>` per other function under --split-files. Each file
    starts with the banner. `render` walks each function's statements.
    Subclasses set the templates below, `indent` and `new`/`op`/`call`, and
    supply `runtime(cfg)`, the text of `main.<extension>` before its
    functions, and, if they have any, `headers(banner)`.
    """

    extension = ""
    kinds: dict = {}  # container kind -> the backend's runtime parts for it
    banner = ""     # .format(n=function count, kind=container kind)
    file_head = ""  # what an f<id> file needs before its function
    main_fn = ""    # % (PATH_ERROR, ARG_ERROR, entry id)
    fn_head = ""    # % function id; the body follows, then a closing brace
    if_head = ""    # % bit
    loop_head = ""  # % (d, d, trip count, d), d being the loop's depth

    def __init__(self, program: astgen.Program):
        self.program = program
        self.kind = program.plan.container_kind
        self.scalar = self.kind == "scalar"
        self.trip_count = program.plan.trip_count
        if self.kind not in self.kinds:
            raise BackendError("the %s backend has no runtime for the %r container"
                               % (self.extension, self.kind))
        self.parts = self.kinds[self.kind]

    @classmethod
    def emit(cls, program: astgen.Program, cfg: EmitConfig) -> List[SourceFile]:
        return cls(program).files(cfg)

    def headers(self, banner: str) -> List[SourceFile]:
        return []

    def files(self, cfg: EmitConfig) -> List[SourceFile]:
        program = self.program
        inline, alone = program.functions, []
        if cfg.split_files:
            inline = [program.entry]
            alone = [fn for fn in program.functions if fn.id != program.entry_id]
        banner = self.banner.format(n=len(program.functions), kind=self.kind)
        main = [banner, self.runtime(cfg)] + [self.function(fn) for fn in inline]
        main.append(self.main_fn % (PATH_ERROR, ARG_ERROR, program.entry_id))
        files = self.headers(banner)
        files.append(SourceFile("main." + self.extension, "\n".join(main)))
        for fn in alone:
            text = "\n".join([banner, self.file_head, self.function(fn)])
            files.append(SourceFile("f%d.%s" % (fn.id, self.extension), text))
        return files

    def function(self, fn: astgen.FunctionDef) -> str:
        lines = [self.fn_head % fn.id] + self.render(fn.body, 1)
        return "\n".join(lines) + "\n}\n"

    def render(self, stmts: List[astgen.Stmt], depth: int) -> List[str]:
        """The lines of a block `depth` indents deep, which depend on the
        block and `depth` alone: render keeps no state. new(slot), free(slot),
        op(name, slot, value), if_(bit, cond, then, orelse), loop(depth,
        cond, body) and call(callee, slots) each return a statement's parts:
        a string is a line at the statement's depth, a list is a child
        block's rendered lines.

        Each binding is freed, in reverse, as its block ends. Every child
        block renders one level deeper than the lines that enclose it. A
        non-empty If or Loop cond is enclosed in braces of its own, so its
        bindings end before the arm or body; a Loop body is enclosed by the
        loop's own braces, which end its bindings every iteration. A loop's
        counter is named by its depth: nested loops differ in depth, and
        sibling loops are sequential scopes.
        """
        if not stmts:
            return []
        parts: list = []
        bound: List[int] = []
        for st in stmts:
            name = _OP_NAMES.get(type(st))
            if name is not None:
                parts += self.op(name, st.slot, st.value)
            elif isinstance(st, astgen.New):
                bound.append(st.slot)
                parts += self.new(st.slot)
            elif isinstance(st, astgen.If):
                cond = self.render(st.cond, depth + 1)
                then = self.render(st.then, depth + 1)
                orelse = None if st.orelse is None else self.render(st.orelse, depth + 1)
                parts += self.if_(st.bit_index, cond, then, orelse)
            elif isinstance(st, astgen.Loop):
                parts += self.loop(depth, self.render(st.cond, depth + 2),
                                   self.render(st.body, depth + 1))
            elif isinstance(st, astgen.Call):
                parts += self.call(st.callee_id, st.available_slots)
            else:
                raise BackendError("unknown statement type: %r" % (st,))
        for slot in reversed(bound):
            parts += self.free(slot)
        pad = self.indent * depth
        lines: List[str] = []
        for part in parts:
            if type(part) is str:
                lines.append(pad + part)
            else:
                lines += part
        return lines

    def free(self, slot):
        return []  # garbage collected, or nothing on the heap

    def if_(self, bit, cond, then, orelse):
        parts = ["{", cond, "}"] if cond else []
        parts += [self.if_head % bit, then]
        if orelse is not None:
            parts += ["} else {", orelse]
        return parts + ["}"]

    def loop(self, depth, cond, body):
        parts = [self.loop_head % (depth, depth, self.trip_count, depth)]
        if cond:
            parts += [self.indent + "{", cond, self.indent + "}"]
        return parts + [body, "}"]
