"""Spans recorded from outside the program.

The benchmark wraps public functions of the ``repro`` package with
:meth:`Tracer.wrap`.  Each wrapped call is a span: it has a name, a start
and an end, and the span that was open on the same thread when it began
is its parent.  Self time is a span's duration minus the time its child
spans cover; on one thread children nest and never overlap, so that is
the duration minus the sum of the children.

Every wrapped call updates per-name totals (calls, total seconds, self
seconds).  Spans named in ``keep`` are also stored whole, in memory, and
written out when the run ends; the hot per-message functions of the
campaign (hundreds of thousands of calls per campaign) are only
totalled, because storing each of them would take gigabytes.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    tag: Any = None


class _Frame:
    __slots__ = ("name", "span_id", "start", "child_s")

    def __init__(self, name: str, span_id: int, start: float) -> None:
        self.name = name
        self.span_id = span_id
        self.start = start
        self.child_s = 0.0


class Tracer:
    """Wraps functions, keeps totals per span name and stores the spans
    named in ``keep``.  ``clock`` is injectable for tests."""

    def __init__(
        self,
        keep: frozenset[str] | set[str] = frozenset(),
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.keep = frozenset(keep)
        self.clock = clock
        self.spans: list[Span] = []
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> _Frame:
        frame = _Frame(name, next(self._ids), self.clock())
        self._stack().append(frame)
        return frame

    def exit(self, frame: _Frame, tag: Any = None) -> float:
        end = self.clock()
        stack = self._stack()
        stack.pop()
        duration = end - frame.start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.child_s += duration
        name = frame.name
        with self._lock:
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total_s[name] = self.total_s.get(name, 0.0) + duration
            self.self_s[name] = (
                self.self_s.get(name, 0.0) + duration - frame.child_s
            )
            if name in self.keep:
                self.spans.append(
                    Span(
                        frame.span_id, name, frame.start, end,
                        parent.span_id if parent is not None else None, tag,
                    )
                )
        return duration

    def count(self, name: str) -> None:
        with self._lock:
            self.calls[name] = self.calls.get(name, 0) + 1

    # -- installing ------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        tag: Callable[..., Any] | None = None,
        count_only: bool = False,
    ) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``tag(args, kwargs, result)`` labels the stored span (a unit or
        request id).  ``count_only`` counts calls without timing them,
        for generator functions, whose work runs after they return.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        func = original.__func__ if isinstance(original, staticmethod) else original

        if count_only:
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                self.count(name)
                return func(*args, **kwargs)
        else:
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                frame = self.enter(name)
                result = None
                try:
                    result = func(*args, **kwargs)
                    return result
                finally:
                    self.exit(
                        frame,
                        tag(args, kwargs, result) if tag is not None else None,
                    )

        replacement = staticmethod(wrapper) if isinstance(original, staticmethod) else wrapper
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------
    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "spans": [
                {"id": s.span_id, "name": s.name, "start": s.start,
                 "end": s.end, "parent": s.parent, "tag": s.tag}
                for s in self.spans
            ],
            "totals": {
                name: {"calls": self.calls[name],
                       "total_s": self.total_s.get(name, 0.0),
                       "self_s": self.self_s.get(name, 0.0)}
                for name in sorted(self.calls)
            },
        }
        path.write_text(json.dumps(doc, default=str))

