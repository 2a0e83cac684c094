"""Source emission for lowered programs: one backend class per language.

``BACKENDS`` maps each backend id to its class: "c" (C99) and "go". Each is
a ``base.BraceSyntax`` subclass. The base class holds the file layout and
the one statement walker, ``BraceSyntax.render``; a subclass supplies only
its runtime text, headers and ``main()``, and the ``extension`` (without the
dot) of the files it hands to a compiler. Its ``emit`` classmethod builds
one instance per program.

``emit`` is pure: it returns file contents and never touches the filesystem.
"""

from __future__ import annotations

from typing import List

from .. import astgen
from .base import BackendError, EmitConfig, SourceFile
from .c import CBackend
from .go import GoBackend

BACKENDS = {"c": CBackend, "go": GoBackend}


def get_backend(backend_id: str):
    try:
        return BACKENDS[backend_id]
    except KeyError:
        raise BackendError("unknown backend %r (known: %s)"
                           % (backend_id, ", ".join(sorted(BACKENDS)))) from None


def emit(program: astgen.Program, cfg: EmitConfig) -> List[SourceFile]:
    """Render a program to source files with the configured backend."""
    return get_backend(cfg.backend).emit(program, cfg)


__all__ = ["BACKENDS", "BackendError", "CBackend", "EmitConfig", "GoBackend",
           "SourceFile", "emit", "get_backend"]
