"""In-memory span recorder for the benchmark's traced runs.

A span is one timed call into a keyswap layer: its name, start, end,
the span that was open around it, the user it ran for, and any counts
noted at that boundary. Spans stay in memory and are written out once
the run ends. ``NullRecorder`` has the same interface and records
nothing, so the untraced run executes the same chain code.
"""

from __future__ import annotations

import json
import time


class Span:
    __slots__ = ("name", "user", "parent", "start", "end", "counts")

    def __init__(self, name: str, user: str | None, parent: int | None, start: float):
        self.name = name
        self.user = user
        self.parent = parent
        self.start = start
        self.end = start
        self.counts: dict[str, float] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def note(self, **counts: float) -> None:
        self.counts.update(counts)


class _Open:
    """Context manager that opens one span and closes it on exit."""

    __slots__ = ("_rec", "_name", "_user", "span")

    def __init__(self, rec: Recorder, name: str, user: str | None):
        self._rec = rec
        self._name = name
        self._user = user
        self.span: Span | None = None

    def __enter__(self) -> Span:
        rec = self._rec
        parent = rec._stack[-1] if rec._stack else None
        self.span = Span(self._name, self._user, parent, 0.0)
        rec._stack.append(len(rec.spans))
        rec.spans.append(self.span)
        self.span.start = time.perf_counter() - rec.t0
        return self.span

    def __exit__(self, *exc) -> None:
        rec = self._rec
        self.span.end = time.perf_counter() - rec.t0
        rec._stack.pop()


class Recorder:
    enabled = True

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def span(self, name: str, user: str | None = None) -> _Open:
        return _Open(self, name, user)

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its children cover."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = []
        for idx, s in enumerate(self.spans):
            covered, reach = 0.0, s.start
            for c in sorted(children.get(idx, ()), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(s.duration - covered)
        return out

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s, self_s in zip(self.spans, self.self_times()):
                row = {
                    "name": s.name,
                    "user": s.user,
                    "parent": s.parent,
                    "start": s.start,
                    "end": s.end,
                    "self_s": self_s,
                    "counts": s.counts,
                }
                fh.write(json.dumps(row) + "\n")


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return self

    def __exit__(self, *exc) -> None:
        return None

    def note(self, **counts: float) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullRecorder:
    enabled = False

    def span(self, name: str, user: str | None = None) -> _NullSpan:
        return _NULL_SPAN
