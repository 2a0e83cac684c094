"""Shared codegen types, and the base class of every backend: its file
layout and the one statement walker, ``BraceSyntax.render``, which hands
each line to a sink."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

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


# Both emitted mains accept PATH only as [0-9]+ below 2^64; on anything else
# they print this (a printf format for the argument) and exit 2.
PATH_ERROR = "error: PATH must be a decimal integer in [0, 2^64), got '%s'"
# Likewise for any argument after PATH but --debug.
ARG_ERROR = "error: unexpected argument '%s'; usage: [PATH] [--debug]"

_OP_NAMES = {astgen.Insert: "insert", astgen.Remove: "remove", astgen.Contains: "contains"}


# Takes the next piece of a file's text: list.append, or a file's write.
Sink = Callable[[str], object]
# A file before it is rendered: its relative path, and write_to(sink),
# which hands the file's text to sink.
Source = Tuple[str, Callable[[Sink], None]]


class BraceSyntax:
    """Files and blocks shared by the C-family backends.

    A subclass is a backend, listed as is in `codegen.BACKENDS`: one
    instance per program. `files(cfg)` lays out `main.<extension>` (the
    runtime, each function that --split-files leaves there, and `main()`),
    plus one `f<id>.<extension>` per other function under --split-files.
    Each file starts with the banner. `render` walks each function's
    statements. Subclasses set the templates below, `indent` and
    `new`/`op`/`call`, and supply `runtime()`, the text of
    `main.<extension>` before its functions, and, if they have any,
    `headers(banner)`.
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

    def headers(self, banner: str) -> List[Source]:
        return []

    def files(self, cfg: EmitConfig) -> List[Source]:
        """Each file as a Source, whose write_to hands the file's text to
        its sink a line or a template at a time. No function is rendered
        before write_to is called, and no line is kept after."""
        program = self.program
        inline, alone = program.functions, []
        if cfg.split_files:
            inline = [program.entry]
            alone = [fn for fn in program.functions if fn.id != program.entry_id]
        banner = self.banner.format(n=len(program.functions), kind=self.kind)

        def main(sink: Sink) -> None:
            sink(banner + "\n")
            sink(self.runtime() + "\n")
            for fn in inline:
                self.function(fn, sink)
                sink("\n")
            sink(self.main_fn % (PATH_ERROR, ARG_ERROR, program.entry_id))

        def alone_file(fn: astgen.FunctionDef) -> Callable[[Sink], None]:
            def write_to(sink: Sink) -> None:
                sink(banner + "\n" + self.file_head + "\n")
                self.function(fn, sink)
            return write_to

        files = self.headers(banner)
        files.append(("main." + self.extension, main))
        for fn in alone:
            files.append(("f%d.%s" % (fn.id, self.extension), alone_file(fn)))
        return files

    def function(self, fn: astgen.FunctionDef, sink: Sink) -> None:
        sink(self.fn_head % fn.id + "\n")
        self.render(fn.body, 1, sink)
        sink("}\n")

    def render(self, stmts: List[astgen.Stmt], depth: int, sink: Sink) -> None:
        """Hand sink the lines of a block `depth` indents deep, each with its
        newline; they depend on the block and `depth` alone: render keeps no
        state. new(slot), free(slot), op(name, slot, value), if_(bit, cond,
        then, orelse), loop(depth, cond, body) and call(callee, slots) each
        return a statement's parts: a string is a line at the statement's
        depth, a (stmts, depth) pair is a child block, rendered in its place.

        Each binding is freed, in reverse, as its block ends. Every child
        block renders one level deeper than the lines that enclose it. A
        non-empty If or Loop cond is enclosed in braces of its own, so its
        bindings end before the arm or body; a Loop body is enclosed by the
        loop's own braces, which end its bindings every iteration. A loop's
        counter is named by its depth: nested loops differ in depth, and
        sibling loops are sequential scopes.
        """
        pad = self.indent * depth
        bound: List[int] = []
        for st in stmts:
            name = _OP_NAMES.get(type(st))
            if name is not None:
                parts = self.op(name, st.slot, st.value)
            elif isinstance(st, astgen.New):
                bound.append(st.slot)
                parts = self.new(st.slot)
            elif isinstance(st, astgen.If):
                orelse = None if st.orelse is None else (st.orelse, depth + 1)
                parts = self.if_(st.bit_index, (st.cond, depth + 1), (st.then, depth + 1), orelse)
            elif isinstance(st, astgen.Loop):
                parts = self.loop(depth, (st.cond, depth + 2), (st.body, depth + 1))
            elif isinstance(st, astgen.Call):
                parts = self.call(st.callee_id, st.available_slots)
            else:
                raise BackendError("unknown statement type: %r" % (st,))
            for part in parts:
                if type(part) is str:
                    sink(pad + part + "\n")
                else:
                    self.render(*part, sink)
        for slot in reversed(bound):
            for part in self.free(slot):
                sink(pad + part + "\n")

    def free(self, slot):
        return []  # garbage collected, or nothing on the heap

    def if_(self, bit, cond, then, orelse):
        parts = ["{", cond, "}"] if cond[0] else []
        parts += [self.if_head % bit, then]
        if orelse is not None:
            parts += ["} else {", orelse]
        return parts + ["}"]

    def loop(self, depth, cond, body):
        parts = [self.loop_head % (depth, depth, self.trip_count, depth)]
        if cond[0]:
            parts += [self.indent + "{", cond, self.indent + "}"]
        return parts + [body, "}"]
