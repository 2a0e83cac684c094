"""In-memory spans for the traced session, and self-time arithmetic.

A traced session wraps public functions at their module attributes, so that
callers which reach them through the module (``grammar.derive``) or as module
globals (``astgen.lower`` calling ``plan_operands``) both pass through the
wrapper. ``instrument`` restores every attribute on exit, whatever happens.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

# Counting runs in a span of its own, so its cost leaves the caller's self
# time and shows up as tracing overhead instead.
COUNT_SPAN = "trace.count"


@dataclass
class Span:
    name: str
    span_id: int
    parent: Optional[int]
    session: str
    start: float
    end: float = 0.0
    counts: Dict[str, float] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "name": self.name, "id": self.span_id, "parent": self.parent,
            "session": self.session, "start": self.start, "end": self.end,
            "counts": self.counts,
        }


class Tracer:
    """Collects nested spans of one thread; nothing is written until asked."""

    def __init__(self, session: str, clock: Callable[[], float] = time.perf_counter):
        self.session = session
        self.spans: List[Span] = []
        self._open: List[Span] = []
        self._clock = clock

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._open[-1].span_id if self._open else None
        sp = Span(name, len(self.spans), parent, self.session, self._clock())
        self.spans.append(sp)
        self._open.append(sp)
        try:
            yield sp
        finally:
            sp.end = self._clock()
            self._open.pop()

    def current_name(self) -> Optional[str]:
        return self._open[-1].name if self._open else None


Counter = Callable[[tuple, dict, object], Dict[str, float]]


@dataclass(frozen=True)
class Hook:
    """Wrap ``module.attr`` in a span called ``name``.

    ``counter(args, kwargs, result)`` returns counts stored on the span.
    A call made while the innermost open span is ``skip_inside`` gets no
    span of its own, so that span keeps the time.
    """

    module: object
    attr: str
    name: str
    counter: Optional[Counter] = None
    skip_inside: Optional[str] = None


def _wrap(tracer: Tracer, hook: Hook, fn: Callable) -> Callable:
    def traced(*args, **kwargs):
        if hook.skip_inside is not None and tracer.current_name() == hook.skip_inside:
            return fn(*args, **kwargs)
        with tracer.span(hook.name) as sp:
            result = fn(*args, **kwargs)
        if hook.counter is not None:
            with tracer.span(COUNT_SPAN):
                sp.counts.update(hook.counter(args, kwargs, result))
        return result

    return traced


@contextlib.contextmanager
def instrument(tracer: Tracer, hooks: Sequence[Hook]) -> Iterator[Tracer]:
    """Install every hook for the duration of the block, then restore."""
    saved: List[Tuple[object, str, object]] = []
    try:
        for hook in hooks:
            original = getattr(hook.module, hook.attr)
            saved.append((hook.module, hook.attr, original))
            setattr(hook.module, hook.attr, _wrap(tracer, hook, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    return {
        sp.span_id: (sp.end - sp.start) - _covered(children.get(sp.span_id, []), sp.start, sp.end)
        for sp in spans
    }


def descendants(spans: Sequence[Span], root_id: int) -> List[Span]:
    """The span ``root_id`` and every span below it."""
    keep = {root_id}
    out = []
    for sp in spans:  # parents are always recorded before their children
        if sp.span_id in keep or sp.parent in keep:
            keep.add(sp.span_id)
            out.append(sp)
    return out
