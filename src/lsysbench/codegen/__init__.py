"""Source emission for lowered programs, behind a pluggable backend registry.

A backend is any object with an ``emit(program, cfg) -> list[SourceFile]``
method and an ``extension``, the suffix (without the dot) of the files it
hands to a compiler. Two full backends ship registered out of the box: "c"
(C99) and "go". Each is a ``base.BraceSyntax`` subclass, registered as is:
the class shares the file layout and supplies only its runtime text, headers
and ``main()``, and its ``emit`` classmethod builds one instance per program.
Third parties can register either a backend object or a plain dict of
per-construct format strings, which gets wrapped in a TemplateBackend.

All three walk statements with the one walker, ``base.render_block``; each
language is only a small syntax object that renders single constructs.

``emit`` is pure: it returns file contents and never touches the filesystem.
"""

from __future__ import annotations

from typing import Dict, List, Union

from .. import astgen
from .base import BackendError, EmitConfig, SourceFile, render_block

# Every backend has to say how these constructs are rendered.
REQUIRED_TEMPLATE_KEYS = ("new", "insert", "remove", "contains", "if", "loop", "call")


class TemplateBackend:
    """Backend driven by per-construct format strings.

    Templates are ``str.format`` strings keyed by construct name:

      new                      -> {slot}
      insert, remove, contains -> {slot} {value}
      if                       -> {bit} {cond} {then} {orelse}
      loop                     -> {trips} {cond} {body}
      call                     -> {callee} {args}

    Block placeholders receive already-rendered text with statements joined
    by spaces. The output is a single file, ``program.txt``, with one line
    per function: ``f<id>: <rendered body>``.
    """

    extension = "txt"

    def __init__(self, templates: Dict[str, str]):
        missing = [key for key in REQUIRED_TEMPLATE_KEYS if key not in templates]
        if missing:
            raise BackendError(
                "backend template table is missing: %s" % ", ".join(missing)
            )
        self.templates = dict(templates)

    def emit(self, program: astgen.Program, cfg: EmitConfig) -> List[SourceFile]:
        syntax = _TemplateSyntax(self.templates, program.plan.trip_count)
        lines = [
            "f%d: %s" % (fn.id, " ".join(render_block(fn.body, syntax)))
            for fn in program.functions
        ]
        name = "program.%s" % self.extension
        return [SourceFile(name, "\n".join(lines) + "\n")]


class _TemplateSyntax:
    """Walker syntax over a template table: one string per statement, and
    blocks joined with spaces."""

    indent = ""

    def __init__(self, templates: Dict[str, str], trip_count: int):
        self.t = templates
        self.trip_count = trip_count

    def new(self, slot):
        return [self.t["new"].format(slot=slot)]

    def free(self, slot):
        return []

    def op(self, name, slot, value):
        return [self.t[name].format(slot=slot, value=value)]

    def if_(self, bit, cond, then, orelse):
        return [self.t["if"].format(
            bit=bit, cond=" ".join(cond), then=" ".join(then), orelse=" ".join(orelse or [])
        )]

    def loop(self, k, cond, body):
        return [self.t["loop"].format(trips=self.trip_count, cond=" ".join(cond), body=" ".join(body))]

    def call(self, callee, slots, k):
        return [self.t["call"].format(callee=callee, args=",".join(str(s) for s in slots))]


_REGISTRY: Dict[str, object] = {}


def register_backend(backend_id: str, backend: Union[object, Dict[str, str]]) -> None:
    """Register a backend object or a template dict under a new id."""
    if backend_id in _REGISTRY:
        raise BackendError("backend id already registered: %r" % backend_id)
    if isinstance(backend, dict):
        backend = TemplateBackend(backend)
    if not callable(getattr(backend, "emit", None)):
        raise BackendError("backend %r has no emit(program, cfg) method" % backend_id)
    if not isinstance(getattr(backend, "extension", None), str):
        raise BackendError("backend %r has no extension" % backend_id)
    _REGISTRY[backend_id] = backend


def get_backend(backend_id: str):
    try:
        return _REGISTRY[backend_id]
    except KeyError:
        raise BackendError(
            "unknown backend %r (registered: %s)"
            % (backend_id, ", ".join(sorted(_REGISTRY)))
        ) from None


def registered_backends() -> List[str]:
    return sorted(_REGISTRY)


def emit(program: astgen.Program, cfg: EmitConfig) -> List[SourceFile]:
    """Render a program to source files with the configured backend."""
    return get_backend(cfg.backend).emit(program, cfg)


from .c import CBackend  # noqa: E402
from .go import GoBackend  # noqa: E402

register_backend("c", CBackend)
register_backend("go", GoBackend)

__all__ = [
    "BackendError",
    "CBackend",
    "EmitConfig",
    "GoBackend",
    "REQUIRED_TEMPLATE_KEYS",
    "SourceFile",
    "TemplateBackend",
    "emit",
    "get_backend",
    "register_backend",
    "registered_backends",
]
