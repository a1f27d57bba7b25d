"""Spans recorded around calls into smoothbench's layers, and their arithmetic.

A span is one call through a wrapped module-level name: its layer name, a key
(the method code where the call has one), start and end on the monotonic
clock, the index of the enclosing span (-1 at top level) and an optional
note taken from the call's arguments or result.  Spans stay in memory and
are written once, when the traced process ends.
"""
from __future__ import annotations

import functools
import time

NAME, KEY, START, END, PARENT, NOTE = range(6)


class Tracer:
    """Collects spans from the functions it wraps, in call order."""

    def __init__(self, clock=time.monotonic):
        self.clock = clock
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, module, attr: str, name: str, key=None, note=None) -> None:
        """Replace ``module.attr`` by a wrapper that records one span per call.

        ``key(args)`` and ``note(args, result)`` fill the span's key and note.
        """
        inner = getattr(module, attr)

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            span = [name, key(args) if key else None, self.clock(), None,
                    self._open[-1] if self._open else -1, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = inner(*args, **kwargs)
            finally:
                span[END] = self.clock()
                self._open.pop()
            if note:
                span[NOTE] = note(args, result)
            return result

        setattr(module, attr, traced)


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for span, kids in zip(spans, children):
        covered, reach = 0.0, span[START]
        for start, end in sorted(kids):
            start, end = max(start, reach), min(end, span[END])
            if end > start:
                covered += end - start
                reach = end
        out.append(span[END] - span[START] - covered)
    return out
