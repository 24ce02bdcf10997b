"""In-memory span recorder that wraps the public entry points of each layer.

Nothing in ``src/`` knows about it: :meth:`Tracer.wrap` replaces a class
or module attribute with a timing wrapper and :meth:`Tracer.uninstall`
puts the original back.  Each call records one span ``(name, start, end,
parent span, round id)``.  The program runs single-threaded, so spans
nest strictly and a span's self time is its duration minus the summed
durations of its direct children.

*Probes* are timed accumulators for calls too fine-grained to be layers
(each modular exponentiation); they add to a total without becoming
spans, so they never change any layer's self time.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter


class Tracer:
    """Records spans and probe totals while installed."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        #: ``(name id, start, end, parent index or -1, round id)``.
        self.spans: List[Optional[Tuple[int, float, float, int, int]]] = []
        self._stack: List[int] = []
        self.round = -1
        self.probe_seconds: Dict[str, float] = defaultdict(float)
        self._restore: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording.
    # ------------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``; returns its result."""
        return self._spanned(name, fn, None)(*args, **kwargs)

    def _spanned(self, name: str, fn: Callable,
                 after: Optional[Callable]) -> Callable:
        name_id = self._name_id(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.round)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _probed(self, name: str, fn: Callable) -> Callable:
        seconds = self.probe_seconds

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += _clock() - start

        return wrapper

    # ------------------------------------------------------------------
    # Installation.
    # ------------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str,
             after: Optional[Callable] = None, probe: bool = False) -> None:
        """Replace ``owner.attr`` by a span (or probe) wrapper.

        ``owner`` is a class or a module.  Static and class methods keep
        their descriptor kind.  ``after(args, kwargs, result)`` runs once
        the span has closed, so its cost lands in no layer.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) \
            else None
        fn = raw.__func__ if kind is not None else raw
        wrapped = (self._probed(name, fn) if probe
                   else self._spanned(name, fn, after))
        setattr(owner, attr, kind(wrapped) if kind is not None else wrapped)
        self._restore.append((owner, attr, raw))

    def uninstall(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    # Analysis.
    # ------------------------------------------------------------------

    def rollup(self) -> "Rollup":
        """Per-name call counts, inclusive and self seconds."""
        spans = self.spans
        child = [0.0] * len(spans)
        for span in spans:
            if span is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        out = Rollup(self.names)
        for index, span in enumerate(spans):
            if span is None:
                continue
            name_id, start, end, parent, _round = span
            duration = end - start
            out.calls[name_id] += 1
            out.inclusive[name_id] += duration
            out.self_seconds[name_id] += duration - child[index]
            if parent >= 0:
                out.child_calls[(spans[parent][0], name_id)] += 1
        return out


class Rollup:
    """Totals of a span list, addressed by span name."""

    def __init__(self, names: List[str]) -> None:
        self._ids = {name: i for i, name in enumerate(names)}
        self.calls: Dict[int, int] = defaultdict(int)
        self.inclusive: Dict[int, float] = defaultdict(float)
        self.self_seconds: Dict[int, float] = defaultdict(float)
        self.child_calls: Dict[Tuple[int, int], int] = defaultdict(int)

    def _id(self, name: str) -> int:
        return self._ids.get(name, -1)

    def count(self, name: str) -> int:
        return self.calls.get(self._id(name), 0)

    def seconds(self, name: str) -> float:
        return self.inclusive.get(self._id(name), 0.0)

    def self_time(self, name: str) -> float:
        return self.self_seconds.get(self._id(name), 0.0)

    def calls_under(self, parent: str, child: str) -> int:
        """Calls of ``child`` made directly inside a ``parent`` span."""
        return self.child_calls.get((self._id(parent), self._id(child)), 0)
