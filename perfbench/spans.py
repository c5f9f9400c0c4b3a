"""In-memory spans around calls into the program's public entry points.

The traced run wraps entry points of each ``repro`` layer (functions,
methods, context managers) so every call records a span: name, start,
end, thread and the span that encloses it on the same thread.  A
span's self time is its duration minus the time its child spans cover,
which is what attributes time to one layer.  Counters record facts
(instructions, lanes, events) at the same boundaries.  Spans stay in
memory until :meth:`Tracer.write` puts them on disk at the end of the
run.

Nothing in ``src/`` changes: :class:`Patches` swaps attributes on the
program's modules, classes and objects for the duration of a phase and
restores them afterwards.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional


class _Open:
    __slots__ = ("span_id", "name", "start", "child_s")

    def __init__(self, span_id: int, name: str, start: float) -> None:
        self.span_id = span_id
        self.name = name
        self.start = start
        self.child_s = 0.0


class Tracer:
    """Thread-safe span and counter recorder."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[_Open]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> _Open:
        with self._lock:
            span_id = next(self._ids)
        opened = _Open(span_id, name, time.perf_counter())
        self._stack().append(opened)
        return opened

    def end(self, opened: _Open) -> None:
        end = time.perf_counter()
        stack = self._stack()
        if not stack or stack[-1] is not opened:
            raise RuntimeError(f"span {opened.name!r} closed out of order")
        stack.pop()
        duration = end - opened.start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.child_s += duration
        record = {"id": opened.span_id, "name": opened.name,
                  "parent": parent.span_id if parent is not None else None,
                  "thread": threading.get_ident(),
                  "start": opened.start, "end": end,
                  "self": duration - opened.child_s}
        with self._lock:
            self.spans.append(record)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        opened = self.begin(name)
        try:
            yield
        finally:
            self.end(opened)

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += value

    def self_time(self, name: str) -> float:
        """Total self time of every span called ``name``."""
        with self._lock:
            return sum(s["self"] for s in self.spans if s["name"] == name)

    def write(self, path: Path) -> None:
        """Write every span (JSON lines) and the counters."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            spans = list(self.spans)
            counters = dict(self.counters)
        with path.open("w") as handle:
            for record in spans:
                handle.write(json.dumps(record) + "\n")
            handle.write(json.dumps({"counters": counters}) + "\n")


def traced(tracer: Tracer, name: str, fn: Callable[..., Any],
           after: Optional[Callable[[tuple, dict, Any], None]] = None
           ) -> Callable[..., Any]:
    """``fn`` (a function or a class) inside a span;
    ``after(args, kwargs, result)`` counts."""

    @functools.wraps(fn, updated=())
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(args, kwargs, result)
        return result

    return wrapper


class _TracedContext:
    """A context manager whose enter and exit (or whole body) are spans."""

    def __init__(self, tracer: Tracer, name: str, inner: Any,
                 whole_body: bool) -> None:
        self._tracer = tracer
        self._name = name
        self._inner = inner
        self._whole_body = whole_body
        self._open: Optional[_Open] = None

    def __enter__(self) -> Any:
        if self._whole_body:
            self._open = self._tracer.begin(self._name)
            try:
                return self._inner.__enter__()
            except BaseException:
                self._tracer.end(self._open)
                raise
        with self._tracer.span(self._name):
            return self._inner.__enter__()

    def __exit__(self, *exc_info: Any) -> Any:
        if self._whole_body:
            try:
                return self._inner.__exit__(*exc_info)
            finally:
                assert self._open is not None
                self._tracer.end(self._open)
        with self._tracer.span(self._name):
            return self._inner.__exit__(*exc_info)


def traced_context(tracer: Tracer, name: str, factory: Callable[..., Any],
                   whole_body: bool) -> Callable[..., Any]:
    """Wrap a context-manager factory.

    ``whole_body`` spans the ``with`` block; otherwise only entering and
    leaving it (lock waits, snapshot restores) are timed.
    """

    @functools.wraps(factory)
    def wrapper(*args: Any, **kwargs: Any) -> _TracedContext:
        return _TracedContext(tracer, name, factory(*args, **kwargs),
                              whole_body)

    return wrapper


class Patches:
    """Attribute and mapping swaps that :meth:`restore` undoes in
    reverse order."""

    _MISSING = object()

    def __init__(self) -> None:
        self._undo: List[Callable[[], None]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        """Replace ``owner.attr``; a class keeps its raw descriptor
        (classmethod, staticmethod) for the restore."""
        old = vars(owner).get(attr, self._MISSING)

        def undo() -> None:
            if old is self._MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

        self._undo.append(undo)
        setattr(owner, attr, value)

    def set_item(self, mapping: Dict[Any, Any], key: Any, value: Any) -> None:
        old = mapping[key]
        self._undo.append(lambda: mapping.__setitem__(key, old))
        mapping[key] = value

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()
