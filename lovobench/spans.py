"""Span recording around the system's public functions, and its reduction.

The traced run wraps layer entry points from outside the program: each wrapped
call records a :class:`Span` (name, start, end, parent span and request id).
Spans are kept in memory and reduced when the run ends.  Parents are tracked
per thread, so spans from the serving workers or the streaming pipeline nest
correctly under their own roots.

A layer that calls itself through another wrapped entry point (for example
``TextEncoder.encode`` calling ``encode_batch``) is counted once: a wrapped
call whose innermost open span has the same name records nothing.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Collection, Dict, Iterator, List, Optional, Tuple

from stats import covered_length, percentile

#: Extracts span attributes from a wrapped call: ``(args, kwargs, result)``.
AttrFn = Callable[[tuple, dict, Any], Dict[str, Any]]


@dataclass
class Span:
    """One timed call of a layer."""

    sid: int
    parent: Optional[int]
    name: str
    start: float
    end: float = 0.0
    rid: Optional[str] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Records spans for wrapped functions while :attr:`enabled` is true."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: List[tuple] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, rid: Optional[str] = None, **attrs: Any) -> Iterator[Span]:
        """Record a span around a block (the benchmark's own request roots)."""
        if not self.enabled:
            yield Span(0, None, name, 0.0)
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        if rid is None and parent is not None:
            rid = parent.rid
        span = Span(next(self._ids), parent.sid if parent else None, name,
                    time.perf_counter(), rid=rid, attrs=dict(attrs))
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def wrap(self, owner: Any, attr: str, name: str,
             attrs_of: Optional[AttrFn] = None,
             rid_of: Optional[Callable[[tuple, dict], str]] = None) -> None:
        """Replace ``owner.attr`` by a recording wrapper (undone by :meth:`restore`).

        ``args`` passed to ``attrs_of``/``rid_of`` exclude ``self``.
        """
        original = owner.__dict__[attr]
        recorder = self

        @functools.wraps(original)
        def wrapper(obj: Any, *args: Any, **kwargs: Any) -> Any:
            if not recorder.enabled:
                return original(obj, *args, **kwargs)
            stack = recorder._stack()
            if stack and stack[-1].name == name:
                return original(obj, *args, **kwargs)
            rid = rid_of(args, kwargs) if rid_of is not None else None
            with recorder.span(name, rid=rid) as span:
                result = original(obj, *args, **kwargs)
                if attrs_of is not None:
                    span.attrs.update(attrs_of(args, kwargs, result))
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def hook(self, owner: Any, attr: str, observe: Callable[[Any, float], None]) -> None:
        """Call ``observe(result, return_time)`` after ``owner.attr`` returns.

        For calls whose duration is idle waiting rather than work (a worker
        blocking for its next batch), so they get no span.
        """
        original = owner.__dict__[attr]
        recorder = self

        @functools.wraps(original)
        def wrapper(obj: Any, *args: Any, **kwargs: Any) -> Any:
            result = original(obj, *args, **kwargs)
            if recorder.enabled:
                observe(result, time.perf_counter())
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        """Undo every :meth:`wrap` and :meth:`hook`, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Overlapping children are subtracted once (their union), and a child that
    outlasts its parent only counts inside the parent's interval.
    """
    children: Dict[int, List[tuple]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.sid: span.duration - covered_length(children.get(span.sid, ()), span.start, span.end)
        for span in spans
    }


def layer_summary(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, total and median self time in milliseconds."""
    own = self_times(spans)
    per_name: Dict[str, List[float]] = {}
    for span in spans:
        per_name.setdefault(span.name, []).append(own[span.sid] * 1000.0)
    return {
        name: {"calls": len(values), "self_ms": sum(values),
               "self_ms_p50": percentile(values, 50.0)}
        for name, values in per_name.items()
    }


def _under_roots(spans: List[Span], roots: Collection[str]) -> List[Tuple[Span, List[Span]]]:
    """Each span named in ``roots`` with all its descendants."""
    by_parent: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            by_parent.setdefault(span.parent, []).append(span)
    trees = []
    for root in (span for span in spans if span.name in roots):
        descendants: List[Span] = []
        frontier = list(by_parent.get(root.sid, ()))
        while frontier:
            span = frontier.pop()
            descendants.append(span)
            frontier.extend(by_parent.get(span.sid, ()))
        trees.append((root, descendants))
    return trees


def coverage(spans: List[Span], roots: Collection[str]) -> float:
    """Share of the time of spans named in ``roots`` covered by their descendants.

    Only descendants recorded in the same thread as their root nest under it;
    coverage is the union of every descendant's interval, clipped to the root.
    """
    total = covered = 0.0
    for root, descendants in _under_roots(spans, roots):
        total += root.duration
        covered += covered_length(((s.start, s.end) for s in descendants),
                                  root.start, root.end)
    return covered / total if total > 0 else 0.0


def overhead(spans: List[Span], roots: Collection[str], cost: float) -> float:
    """Share of the roots' time spent recording their descendants, at ``cost`` s per span."""
    trees = _under_roots(spans, roots)
    total = sum(root.duration for root, _ in trees)
    recorded = sum(len(descendants) for _, descendants in trees)
    return recorded * cost / total if total > 0 else 0.0


def span_cost(calls: int = 20_000) -> float:
    """Seconds a recorded span adds to one call: a wrapped no-op minus a plain one."""

    class Probe:
        def call(self) -> None:
            return None

    probe = Probe()
    start = time.perf_counter()
    for _ in range(calls):
        probe.call()
    plain = time.perf_counter() - start
    recorder = Recorder()
    recorder.wrap(Probe, "call", "probe")
    recorder.enabled = True
    with recorder.span("root"):
        start = time.perf_counter()
        for _ in range(calls):
            probe.call()
        wrapped = time.perf_counter() - start
    recorder.restore()
    return max(wrapped - plain, 0.0) / calls
