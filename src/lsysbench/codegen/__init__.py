"""Source emission for lowered programs: one backend class per language.

``BACKENDS`` maps each backend id to its class: "c" (C99) and "go". Each is
a ``base.BraceSyntax`` subclass. The base class holds the file layout and
the one statement walker, ``BraceSyntax.render``; a subclass supplies only
its runtime text, headers and ``main()``, and the ``extension`` (without the
dot) of the files it hands to a compiler. One instance is built per program.

``sources`` hands each file's text to a sink a line at a time; ``emit``
collects the same text into file contents. Neither touches the filesystem.
"""

from __future__ import annotations

from typing import List

from .. import astgen
from .base import BackendError, EmitConfig, Sink, Source, SourceFile
from .c import CBackend
from .go import GoBackend

BACKENDS = {"c": CBackend, "go": GoBackend}


def get_backend(backend_id: str):
    try:
        return BACKENDS[backend_id]
    except KeyError:
        raise BackendError("unknown backend %r (known: %s)"
                           % (backend_id, ", ".join(sorted(BACKENDS)))) from None


def sources(program: astgen.Program, cfg: EmitConfig) -> List[Source]:
    """The program's files with the configured backend, each as (relative
    path, write_to): write_to(sink) hands the file's text to sink piece by
    piece, so a caller can stream it to disk without holding it whole."""
    return get_backend(cfg.backend)(program).files(cfg)


def emit(program: astgen.Program, cfg: EmitConfig) -> List[SourceFile]:
    """Render a program to source files with the configured backend: the
    text that `sources` hands out, collected whole."""
    files = []
    for name, write_to in sources(program, cfg):
        pieces: List[str] = []
        write_to(pieces.append)
        files.append(SourceFile(name, "".join(pieces)))
    return files


__all__ = ["BACKENDS", "BackendError", "CBackend", "EmitConfig", "GoBackend",
           "Sink", "Source", "SourceFile", "emit", "get_backend", "sources"]
