"""Hierarchical spans and counters for the reasoning stack.

The tracer is the measurement substrate the engine, pipeline, benchmark
harness and CLI share: a tree of :class:`Span` objects, each with a
monotonic wall-clock duration and a free-form attribute dict used for
counters (rule firings, facts derived, delta sizes, ...).

Design constraints, in order:

* **zero-cost by default** — every instrumented component takes an
  optional tracer and falls back to :data:`NULL_TRACER`, whose methods
  are no-ops returning a shared singleton, so the disabled path costs a
  method call and nothing else (no span allocation, no ``perf_counter``);
* **nested** — ``span()`` is a context manager; spans opened inside it
  become children, so a pipeline span contains the engine spans of the
  reasoning runs it triggers;
* **exportable** — ``to_dict()`` / ``to_json()`` emit the whole tree in
  a stable machine-readable shape, ``render()`` pretty-prints it for the
  CLI's ``--profile`` flag.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Iterator


class Span:
    """One timed node of the trace tree."""

    __slots__ = ("name", "started", "ended", "attributes", "children")

    def __init__(self, name: str):
        self.name = name
        self.started = time.perf_counter()
        self.ended: float | None = None
        self.attributes: dict[str, Any] = {}
        self.children: list["Span"] = []

    # -- lifecycle ------------------------------------------------------

    def finish(self, duration: float | None = None) -> None:
        """Close the span; ``duration`` overrides the measured wall time
        (used for synthetic spans that aggregate accumulated timings)."""
        if duration is not None:
            self.ended = self.started + duration
        elif self.ended is None:
            self.ended = time.perf_counter()

    @property
    def duration(self) -> float:
        """Seconds from start to finish (or to now while still open)."""
        end = self.ended if self.ended is not None else time.perf_counter()
        return end - self.started

    def child(self, name: str) -> "Span":
        span = Span(name)
        self.children.append(span)
        return span

    # -- counters -------------------------------------------------------

    def set(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def add(self, key: str, amount: float = 1) -> None:
        """Accumulate a numeric counter attribute."""
        self.attributes[key] = self.attributes.get(key, 0) + amount

    def append(self, key: str, value: Any) -> None:
        """Append to a list-valued attribute (e.g. per-round delta sizes)."""
        self.attributes.setdefault(key, []).append(value)

    def record_memory(self) -> None:
        """Set ``rss_mb`` (resident now) and ``hwm_mb`` (the process's
        peak resident size, ``VmHWM``); nothing where ``/proc`` is absent."""
        memory = _memory_mb()
        if memory is not None:
            self.attributes["rss_mb"], self.attributes["hwm_mb"] = memory

    # -- inspection -----------------------------------------------------

    def walk(self) -> Iterator["Span"]:
        """This span and all descendants, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> "Span | None":
        """First descendant (or self) whose name equals ``name``."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def find_all(self, name: str) -> list["Span"]:
        return [span for span in self.walk() if span.name == name]

    # -- export ---------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "duration_s": self.duration,
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }

    def render(self, indent: int = 0, min_fraction: float = 0.0) -> str:
        """Fixed-width tree: name, duration, then ``key=value`` counters.

        ``min_fraction`` drops descendants cheaper than that fraction of
        this span's duration (0 keeps everything).
        """
        budget = self.duration or 1e-12
        lines: list[str] = []

        def emit(span: Span, depth: int) -> None:
            label = "  " * depth + span.name
            attrs = " ".join(
                f"{key}={_fmt_value(value)}" for key, value in span.attributes.items()
            )
            lines.append(
                f"{label:<44}{_fmt_seconds(span.duration):>10}"
                + (f"  {attrs}" if attrs else "")
            )
            for child in span.children:
                if child.duration >= min_fraction * budget:
                    emit(child, depth + 1)

        emit(self, indent)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Span({self.name!r}, {_fmt_seconds(self.duration)}, {len(self.children)} children)"


class Tracer:
    """A live trace: a root span plus a stack tracking the open span.

    Usable directly as a context manager factory::

        tracer = Tracer("run")
        with tracer.span("pipeline.augment"):
            with tracer.span("engine.run", rules=12) as span:
                span.add("facts_derived", 120)
        print(tracer.render())
    """

    enabled = True

    def __init__(self, name: str = "trace"):
        self.root = Span(name)
        self._stack: list[Span] = [self.root]

    @property
    def current(self) -> Span:
        """The innermost open span (the root when none is open)."""
        return self._stack[-1]

    def span(self, name: str, **attributes: Any) -> "_SpanContext":
        """Open a child span of the current span for a ``with`` block."""
        span = self.current.child(name)
        if attributes:
            span.attributes.update(attributes)
        return _SpanContext(self, span)

    # counter conveniences on whatever span is open
    def set(self, key: str, value: Any) -> None:
        self.current.set(key, value)

    def add(self, key: str, amount: float = 1) -> None:
        self.current.add(key, amount)

    def append(self, key: str, value: Any) -> None:
        self.current.append(key, value)

    def finish(self) -> None:
        """Close the root span (idempotent)."""
        self.root.finish()

    # -- export ---------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return self.root.to_dict()

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, default=str)

    def render(self, min_fraction: float = 0.0) -> str:
        return self.root.render(min_fraction=min_fraction)

    def find(self, name: str) -> Span | None:
        return self.root.find(name)


class _SpanContext:
    """Context manager pushing/popping one span on the tracer stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: Tracer, span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._stack.append(self._span)
        return self._span

    def __exit__(self, *exc_info: Any) -> None:
        self._span.finish()
        self._tracer._stack.pop()


class _NullSpan:
    """Shared inert span: accepts the whole Span surface and does nothing."""

    __slots__ = ()

    name = "null"
    started = 0.0
    ended = 0.0
    duration = 0.0
    attributes: dict[str, Any] = {}
    children: tuple = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None

    def finish(self, duration: float | None = None) -> None:
        return None

    def child(self, name: str) -> "_NullSpan":
        return self

    def set(self, key: str, value: Any) -> None:
        return None

    def add(self, key: str, amount: float = 1) -> None:
        return None

    def append(self, key: str, value: Any) -> None:
        return None

    def record_memory(self) -> None:
        return None

    def walk(self) -> Iterator["_NullSpan"]:
        return iter(())

    def find(self, name: str) -> None:
        return None

    def find_all(self, name: str) -> list:
        return []

    def to_dict(self) -> dict[str, Any]:
        return {}


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    Instrumented code holds a reference to this singleton when no tracer
    was passed, so the hot paths pay one attribute check
    (``tracer.enabled``) or one trivially inlinable method call.
    """

    enabled = False
    current = _NULL_SPAN
    root = _NULL_SPAN

    __slots__ = ()

    def span(self, name: str, **attributes: Any) -> _NullSpan:
        return _NULL_SPAN

    def set(self, key: str, value: Any) -> None:
        return None

    def add(self, key: str, amount: float = 1) -> None:
        return None

    def append(self, key: str, value: Any) -> None:
        return None

    def finish(self) -> None:
        return None

    def to_dict(self) -> dict[str, Any]:
        return {}

    def to_json(self, indent: int | None = 2) -> str:
        return "{}"

    def render(self, min_fraction: float = 0.0) -> str:
        return "(tracing disabled)"

    def find(self, name: str) -> None:
        return None


#: Shared no-op tracer used whenever no live tracer is supplied.
NULL_TRACER = NullTracer()


def _memory_mb() -> tuple[float, float] | None:
    """(resident MB, peak resident MB) of this process, from ``/proc``."""
    try:
        with open("/proc/self/statm") as statm:
            resident_pages = int(statm.read().split()[1])
        with open("/proc/self/status") as status:
            hwm_kb = next(
                int(line.split()[1]) for line in status if line.startswith("VmHWM")
            )
    except (OSError, StopIteration):
        return None
    rss = resident_pages * os.sysconf("SC_PAGE_SIZE") / 2**20
    return round(rss, 1), round(hwm_kb / 1024, 1)


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds * 1e6:.0f}µs"


def _fmt_value(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    if isinstance(value, list) and len(value) > 8:
        shown = ",".join(str(v) for v in value[:8])
        return f"[{shown},...×{len(value)}]"
    if isinstance(value, list):
        return "[" + ",".join(str(v) for v in value) + "]"
    return str(value)
