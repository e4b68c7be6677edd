"""In-memory span tracer for the benchmark's traced run.

The program is not edited: :func:`patched` swaps public functions and
methods for wrappers that open a :class:`Span` around each call and
puts the originals back on exit.  Spans keep name, start, end, parent
span (per thread), the request or trial the call served, and a few
attributes read from the call's arguments.  They stay in memory until
the benchmark writes them out at the end.

A span's *self time* is its duration minus the time its direct
children cover; summed per layer (the span-name prefix before the
first dot) plus an explicit ``other`` remainder, self times tile the
traced wall exactly (:func:`tile`).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass(eq=False)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: "Span | None" = None
    thread: int = 0
    key: object = None
    """Request id or trial key the call served (``None`` for batch work)."""
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from any number of threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.key: object = None
        """Key stamped on new spans (the trial in progress)."""
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        span = Span(
            name,
            time.perf_counter(),
            parent=stack[-1] if stack else None,
            thread=threading.get_ident(),
            key=self.key,
        )
        stack.append(span)
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def wrap(self, fn, name: str, note=None, pre=None):
        """``fn`` with every call recorded as a span called ``name``;
        ``pre(span, args, kwargs)`` and ``note(span, args, kwargs,
        result)`` may add attributes before and after the call."""
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.begin(name)
            if pre is not None:
                pre(span, args, kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if note is not None:
                note(span, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_cm(self, factory, name: str):
        """A context-manager factory whose ``__enter__`` and ``__exit__``
        are each recorded as a ``name`` span (the body is not)."""
        tracer = self

        class _Timed:
            def __init__(self, cm) -> None:
                self._cm = cm

            def __enter__(self):
                span = tracer.begin(name)
                try:
                    return self._cm.__enter__()
                finally:
                    tracer.end(span)

            def __exit__(self, *exc):
                span = tracer.begin(name)
                try:
                    return self._cm.__exit__(*exc)
                finally:
                    tracer.end(span)

        def traced(*args, **kwargs):
            return _Timed(factory(*args, **kwargs))

        traced.__wrapped__ = factory
        return traced


@contextmanager
def patched(targets):
    """Install ``(owner, attribute, replacement)`` triples; restore the
    originals on exit, in reverse order."""
    saved = []
    try:
        for owner, attr, replacement in targets:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def window_self(spans: list[Span], t0: float, t1: float) -> list[tuple[Span, float]]:
    """``(span, self seconds)`` for every span wholly inside ``[t0, t1]``.

    A span whose parent lies outside the window counts as top-level.
    """
    window = [s for s in spans if t0 <= s.start and s.end <= t1]
    inside = {id(s) for s in window}
    child: dict[int, float] = {}
    for span in window:
        if span.parent is not None and id(span.parent) in inside:
            pid = id(span.parent)
            child[pid] = child.get(pid, 0.0) + span.duration
    return [(s, s.duration - child.get(id(s), 0.0)) for s in window]


def by_name(pairs: list[tuple[Span, float]]) -> dict[str, tuple[int, float]]:
    """``name -> (calls, self seconds)``."""
    out: dict[str, tuple[int, float]] = {}
    for span, own in pairs:
        calls, total = out.get(span.name, (0, 0.0))
        out[span.name] = (calls + 1, total + own)
    return out


def tile(pairs: list[tuple[Span, float]], wall: float) -> dict[str, float]:
    """Self seconds per layer plus ``other``, summing to ``wall``."""
    out: dict[str, float] = {}
    for span, own in pairs:
        layer = layer_of(span.name)
        out[layer] = out.get(layer, 0.0) + own
    out["other"] = wall - sum(out.values())
    return out


def to_records(spans: list[Span]) -> list[dict]:
    """JSON-ready span records; parents become indices into the list."""
    index = {id(s): i for i, s in enumerate(spans)}
    return [
        {
            "name": s.name,
            "start": s.start,
            "end": s.end,
            "parent": None if s.parent is None else index.get(id(s.parent)),
            "thread": s.thread,
            "key": s.key,
            **({"attrs": s.attrs} if s.attrs else {}),
        }
        for s in spans
    ]
