"""In-memory span recorder and the wrappers a traced run installs.

A traced run (``run.py --trace 1``) patches the public entry points of each
layer with a wrapper that records one span per call: name, start, end,
parent span (the innermost open span on the same thread) and an optional
request/session id.  Spans stay in memory and are written out once, when
the run ends.  Untraced runs create no :class:`Tracer`, so the program's
functions stay untouched.

Layer self time is measured on the timeline: every instant of the measured
window is attributed to the innermost layer that has a span open at that
instant (in any thread), so the layer self times sum to at most the
window's wall time even when the client and the server's drain thread
overlap.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

# Innermost first: an instant covered by spans of several layers counts
# toward the first layer in this list that has one open.
LAYER_ORDER = ("graph", "core", "experiments", "nn", "serve")

Span = Tuple[int, str, float, float, int, Any]  # id, name, start, end, parent, rid


class Tracer:
    """Collects spans from every thread; patches and restores entry points."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: List[Tuple[Any, str, Any]] = []
        # Callbacks fired after a wrapped call returns, with ``(args, result,
        # start, end)``.  Workloads use them for counts (GAResult counters,
        # trace detection) measured where the work happens, and keep what
        # they collect in ``notes``.
        self.observers: Dict[str, List[Callable]] = {}
        self.notes: Dict[str, Any] = {}

    # -- recording -------------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, start: float, end: float, rid: Any = None) -> None:
        """Record a span timed by the caller (client-side request spans)."""
        stack = self._stack()
        parent = stack[-1] if stack else 0
        self.spans.append((next(self._ids), name, start, end, parent, rid))

    def wrap(self, owner: Any, attr: str, name: str,
             rid: Optional[Callable[..., Any]] = None) -> None:
        """Replace ``owner.attr`` (a function defined on ``owner``) with a
        span-recording wrapper."""
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        tracer = self
        observers = self.observers.setdefault(name, [])

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_id = next(tracer._ids)
            stack = tracer._stack()
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((
                    span_id, name, start, end, parent,
                    rid(*args, **kwargs) if rid is not None else None,
                ))
            for observer in observers:
                observer(args, result, start, end)
            return result

        setattr(owner, attr, traced)

    def restore(self) -> None:
        """Put every patched attribute back (in reverse patch order)."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- queries ---------------------------------------------------------------

    def named(self, name: str, start: float = float("-inf"),
              end: float = float("inf")) -> List[Span]:
        """Spans called ``name`` that lie inside ``[start, end]``."""
        return [s for s in self.spans if s[1] == name and s[2] >= start and s[3] <= end]

    def durations(self, name: str, start: float = float("-inf"),
                  end: float = float("inf")) -> List[float]:
        return [s[3] - s[2] for s in self.named(name, start, end)]

    def self_times(self, start: float, end: float) -> Dict[str, float]:
        """Seconds of ``[start, end]`` attributed to each layer (innermost wins).

        A span's layer is the prefix of its name before the first dot.
        """
        events: List[Tuple[float, int, int]] = []
        for _, name, s, e, _, _ in self.spans:
            layer = name.split(".", 1)[0]
            if layer not in LAYER_ORDER:
                continue
            s, e = max(s, start), min(e, end)
            if e <= s:
                continue
            rank = LAYER_ORDER.index(layer)
            events.append((s, 1, rank))
            events.append((e, -1, rank))
        events.sort()
        open_counts = [0] * len(LAYER_ORDER)
        totals = [0.0] * len(LAYER_ORDER)
        previous = start
        for moment, delta, rank in events:
            for index, count in enumerate(open_counts):
                if count:
                    totals[index] += moment - previous
                    break
            open_counts[rank] += delta
            previous = moment
        return dict(zip(LAYER_ORDER, totals))

    def write(self, path: str, meta: Dict[str, Any]) -> None:
        """Dump every span (and run metadata) as one JSON document."""
        payload = {
            "meta": meta,
            "fields": ["id", "name", "start", "end", "parent", "rid"],
            "spans": [list(span) for span in self.spans],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def union_seconds(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for s, e in sorted(intervals):
        if current_end is None or s > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = s, e
        else:
            current_end = max(current_end, e)
    if current_end is not None:
        total += current_end - current_start
    return total
