"""In-memory span tracer that wraps public functions from outside the program.

A span is recorded at each wrapped call: its name, start and end
(``perf_counter_ns``), the span that caused it (the innermost open span of
the same process) and optional call details.  Spans stay in memory until
the benchmark writes them out.  Nothing here changes what a wrapped call
computes; with the tracer disabled a wrapper costs one attribute read.

A forked worker inherits the parent's wrappers; :func:`os.register_at_fork`
gives it an empty span list so each process reports only its own spans.
"""

from __future__ import annotations

import functools
import os
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: One span: ``[name, parent index or -1, start_ns, end_ns, info]``.
Span = List[Any]


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        self.stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    def clear(self) -> None:
        self.spans = []
        self.stack = []

    def take(self) -> List[Span]:
        """Hand over the recorded spans and start an empty list."""
        spans = self.spans
        self.clear()
        return spans

    # -- recording --------------------------------------------------------------

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Record one span around a block of benchmark code."""
        stack = self.stack
        span: Span = [name, stack[-1] if stack else -1, 0, 0, None]
        stack.append(len(self.spans))
        self.spans.append(span)
        span[2] = perf_counter_ns()
        try:
            yield span
        finally:
            span[3] = perf_counter_ns()
            stack.pop()

    def wrap(
        self,
        fn: Callable[..., Any],
        name: "str | Callable[[Tuple[Any, ...]], str]",
        post: Optional[Callable[[Tuple[Any, ...], Dict[str, Any], Any], Any]] = None,
    ) -> Callable[..., Any]:
        """Return ``fn`` recording a span per call while the tracer is enabled.

        ``name`` is a layer name or a function of the call's positional
        arguments; ``post(args, kwargs, result)`` computes the span's info
        after the span has ended, so its cost is charged to the caller.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer.stack
            span: Span = [
                name if isinstance(name, str) else name(args),
                stack[-1] if stack else -1,
                0,
                0,
                None,
            ]
            spans = tracer.spans
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter_ns()
                stack.pop()
            if post is not None:
                span[4] = post(args, kwargs, result)
            return result

        return traced

    # -- patching ---------------------------------------------------------------

    def patch(
        self,
        owner: Any,
        attr: str,
        name: "str | Callable[[Tuple[Any, ...]], str]",
        post: Optional[Callable[[Tuple[Any, ...], Dict[str, Any], Any], Any]] = None,
    ) -> None:
        """Replace ``owner.attr`` (function, method, static or class method).

        A method is patched on the class that defines it.
        """
        if isinstance(owner, type):
            owner = next(cls for cls in owner.__mro__ if attr in cls.__dict__)
            raw = owner.__dict__[attr]
        else:
            raw = getattr(owner, attr)
        if isinstance(raw, staticmethod):
            replacement: Any = staticmethod(self.wrap(raw.__func__, name, post))
        elif isinstance(raw, classmethod):
            replacement = classmethod(self.wrap(raw.__func__, name, post))
        else:
            replacement = self.wrap(raw, name, post)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def unpatch_all(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)


TRACER = Tracer()
os.register_at_fork(after_in_child=TRACER.clear)


def worker_spans(index: int, block: Any) -> Tuple[int, List[Span]]:
    """``map_blocks`` probe: hand over the spans this worker recorded.

    Called once per block; the first call in a worker takes every span,
    later calls in the same worker return an empty list.
    """
    return os.getpid(), TRACER.take()


# -- span arithmetic --------------------------------------------------------------


def union_ns(intervals: Iterable[Tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(start, lo), min(end, hi))
        for start, end in intervals
        if min(end, hi) > max(start, lo)
    )
    total = 0
    cur_start: Optional[int] = None
    cur_end = 0
    for start, end in clipped:
        if cur_start is None or start > cur_end:
            if cur_start is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_start is not None:
        total += cur_end - cur_start
    return total


def self_times_ns(spans: Sequence[Span]) -> List[int]:
    """Each span's duration minus the part of it its child spans cover."""
    children: Dict[int, List[Tuple[int, int]]] = {}
    for span in spans:
        if span[1] >= 0:
            children.setdefault(span[1], []).append((span[2], span[3]))
    return [
        span[3] - span[2] - union_ns(children.get(index, ()), span[2], span[3])
        for index, span in enumerate(spans)
    ]


def outermost(spans: Sequence[Span]) -> List[bool]:
    """Whether each span has no ancestor of the same name.

    A layer's busy time sums only its outermost spans, so a layer calling
    itself (a wrapper workload delegating to its base, an operator falling
    back from its batch path to its object path) is not counted twice.
    """
    result = []
    for span in spans:
        parent = span[1]
        name = span[0]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][1]
        result.append(parent < 0)
    return result


def root_ns(spans: Sequence[Span]) -> int:
    """Summed duration of the spans no other span caused."""
    return sum(span[3] - span[2] for span in spans if span[1] < 0)
