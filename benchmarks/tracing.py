"""In-memory spans recorded from outside the program.

The harness replaces a function by a wrapper in the namespace where its
callers look it up (``netmix.inference.polya_gamma`` is what
``update_omega`` calls), so every call leaves a span without any change
to the program. Spans stay in memory and are written once, when the run
ends. A target that no longer exists is reported as absent instead of
failing the run, so a later rename shows up as a missing layer.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable

__all__ = ["Span", "Tracer", "Target", "Patch", "self_times"]


@dataclass
class Span:
    """One call: name, start and end (perf_counter seconds), index of the
    enclosing span (-1 at top level), the run it belongs to, and an
    optional work count (entries drawn, bytes written, ...)."""

    name: str
    start: float
    end: float
    parent: int
    run: int
    n: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder for one single-threaded process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), float("nan"), parent, self.run))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int, n: int | None = None) -> None:
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError(f"span {self.spans[idx].name!r} closed out of order")
        self._stack.pop()
        span = self.spans[idx]
        span.end = self.clock()
        span.n = n

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield idx
        finally:
            self.end(idx)

    def next_run(self) -> int:
        """Start a new run id; spans of one repetition share it."""
        self.run += 1
        return self.run

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to the parent's interval and overlapping children
    are merged, so the result never double-counts or goes negative.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, span.start), min(hi, span.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(span.duration - covered)
    return out


@dataclass(frozen=True)
class Target:
    """A function to wrap, by dotted path to where its callers find it.

    ``count`` maps (args, kwargs, result) of a call to its work count.
    """

    path: str
    span: str
    count: Callable | None = None


def _resolve(path: str):
    """(owner, attribute name, current value) for a dotted path, or None."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:-1]:
                owner = getattr(owner, attr)
        except AttributeError:
            return None
        name = parts[-1]
        # read the class dict directly so a method is not bound on lookup
        value = vars(owner).get(name) if isinstance(owner, type) else getattr(owner, name, None)
        return None if value is None else (owner, name, value)
    return None


def _wrapper(tracer: Tracer, target: Target, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.begin(target.span)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.end(idx)
            raise
        tracer.end(idx, target.count(args, kwargs, result) if target.count else None)
        return result
    return traced


class Patch:
    """Wrappers in place; ``restore`` puts every original back."""

    def __init__(self, tracer: Tracer, targets):
        self.installed: list[str] = []
        self.absent: list[str] = []
        self._undo = []
        for target in targets:
            found = _resolve(target.path)
            if found is None or not callable(found[2]):
                self.absent.append(target.path)
                continue
            owner, name, fn = found
            setattr(owner, name, _wrapper(tracer, target, fn))
            self._undo.append((owner, name, fn))
            self.installed.append(target.path)

    def restore(self) -> None:
        for owner, name, fn in reversed(self._undo):
            setattr(owner, name, fn)
        self._undo.clear()
