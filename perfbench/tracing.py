"""In-memory span tracer that wraps functions from outside the program.

The benchmark installs the wrappers for traced rounds only and removes them
afterwards, so untraced rounds run the program's own functions. A span has
a name, a start, an end, the span that was open when it began (its parent)
and the round it belongs to. Spans stay in memory until the run writes them
out at its end.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    ident: int
    name: str
    parent: int | None
    round: int | None
    start: float
    end: float = 0.0
    cpu_start: float = 0.0
    cpu_end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def cpu(self) -> float:
        return self.cpu_end - self.cpu_start

    def to_dict(self) -> dict:
        return {"id": self.ident, "name": self.name, "parent": self.parent,
                "round": self.round, "start": self.start, "end": self.end,
                "cpu": self.cpu, "attrs": self.attrs}


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the durations of its children.

    lyocert runs on one thread unless LYOCERT_THREADS is set, and the
    benchmark does not set it, so a span's children run one after another
    inside it and never overlap.
    """
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    return {s.ident: s.duration - child_time.get(s.ident, 0.0) for s in spans}


class Tracer:
    """Records spans around wrapped callables, on one thread."""

    def __init__(self, clock=time.perf_counter, cpu_clock=time.process_time):
        self.spans: list[Span] = []
        self.round: int | None = None
        self._clock = clock
        self._cpu_clock = cpu_clock
        self._origin = clock()
        self._stack: list[Span] = []
        self._next_id = 0
        self._restore: list = []

    def wrap(self, name: str, fn, attrs=None):
        """Wrap fn so each outermost call records one span called name.

        A call made while a span of the same name is open (recursion) runs
        unwrapped, so a recursive function gives one span. attrs, if given,
        maps the call's (args, kwargs) to a dict stored on the span.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            if any(s.name == name for s in stack):
                return fn(*args, **kwargs)
            span = Span(ident=tracer._next_id, name=name,
                        parent=stack[-1].ident if stack else None,
                        round=tracer.round,
                        start=tracer._clock() - tracer._origin,
                        cpu_start=tracer._cpu_clock())
            tracer._next_id += 1
            if attrs is not None:
                span.attrs = attrs(args, kwargs)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = tracer._clock() - tracer._origin
                span.cpu_end = tracer._cpu_clock()
                stack.pop()
                tracer.spans.append(span)

        return traced

    def patch(self, name: str, owner, attr: str, namespaces=(), attrs=None):
        """Replace owner.attr, and every other binding of the same object in
        the given namespaces, by a traced wrapper until uninstall()."""
        original = getattr(owner, attr)
        traced = self.wrap(name, original, attrs)
        for ns in (owner, *namespaces):
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, traced)
                    self._restore.append((ns, key, original))

    def patch_item(self, name: str, mapping: dict, key, attrs=None):
        """Replace mapping[key] by a traced wrapper until uninstall()."""
        original = mapping[key]
        mapping[key] = self.wrap(name, original, attrs)
        self._restore.append((mapping, key, original))

    def uninstall(self) -> None:
        """Put back every patched binding, newest first."""
        while self._restore:
            owner, key, original = self._restore.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.to_dict()) + "\n")
