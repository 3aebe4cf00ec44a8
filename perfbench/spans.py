"""In-memory span recording around patched call sites, and self-time totals.

A :class:`Tracer` replaces a function at the name its caller looks up (a
module attribute, a class attribute or a dict entry) with a wrapper that
records one span per call: name, start, end, parent span, request id and
optional counts. Spans stay in memory until the run writes them out.
:meth:`Tracer.remove` puts every original back, so untraced and traced passes
run in one process.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

_MISSING = object()


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._request = 0
        self._current_request: int | None = None
        self._patches: list[tuple] = []
        self.paused = False

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span under the innermost open span."""
        if self.paused:
            yield None
            return
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), 0.0, parent, self._current_request))
        self._open.append(index)
        try:
            yield self.spans[index]
        finally:
            self._open.pop()
            self.spans[index].end = self.clock()

    @contextmanager
    def request(self, name: str):
        """A top-level span that starts a new request id."""
        self._request += 1
        self._current_request = self._request
        try:
            with self.span(name) as span:
                yield span
        finally:
            self._current_request = None

    @contextmanager
    def pause(self):
        """Calls made inside are not recorded (the benchmark's own checks)."""
        self.paused, previous = True, self.paused
        try:
            yield
        finally:
            self.paused = previous

    def wrap(self, name: str, fn, counts=None):
        """``fn`` recording a span per call; ``counts(args, result)`` adds counts.

        Counts are taken after the span closes, so their cost is not charged
        to the layer they describe.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if span is not None and counts is not None:
                span.counts.update(counts(args, result))
            return result

        return traced

    def patch(self, owner, key: str, name: str, counts=None) -> None:
        """Install a span-recording ``owner.key`` (``owner[key]`` for a dict)."""
        self.replace(owner, key, lambda fn: self.wrap(name, fn, counts))

    def replace(self, owner, key: str, factory) -> None:
        """Set ``owner.key`` to ``factory(current value)`` until :meth:`remove`."""
        is_dict = isinstance(owner, dict)
        if is_dict:
            current = own = owner[key]
        else:
            # A class attribute may be inherited: restore by deleting it.
            current, own = getattr(owner, key), vars(owner).get(key, _MISSING)
        self._patches.append((owner, key, own, is_dict))
        if is_dict:
            owner[key] = factory(current)
        else:
            setattr(owner, key, factory(current))

    def remove(self) -> None:
        """Restore every patched name, newest first."""
        while self._patches:
            owner, key, original, is_dict = self._patches.pop()
            if is_dict:
                owner[key] = original
            elif original is _MISSING:
                delattr(owner, key)
            else:
                setattr(owner, key, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for index, span in enumerate(spans):
        intervals = sorted((max(c.start, span.start), min(c.end, span.end))
                           for c in children.get(index, ()))
        covered, reach = 0.0, span.start
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out
