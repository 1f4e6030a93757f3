"""Benchmark-side spans: name, start, end, parent, workload id.

Kept in memory and written out when the run ends; a span's layer is the
part of its name before the colon.  ``NullSpanLog`` is tracing off: the
same surface, nothing recorded.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

_clock = time.perf_counter


class SpanLog:
    """Benchmark-side spans, kept in memory and written out at exit.

    A span is ``{id, name, parent, workload, start, end}``; the layer is
    the part of the name before the colon.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def _open(self, name: str, start: float, attrs: dict) -> dict:
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "workload": self.workload, "start": start, "end": None, **attrs}
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, **attrs):
        span = self._open(name, _clock(), attrs)
        self._stack.append(span["id"])
        try:
            yield span
        finally:
            span["end"] = _clock()
            self._stack.pop()

    def record(self, name: str, start: float, end: float, **attrs) -> dict:
        """A span measured elsewhere (same ``perf_counter`` clock)."""
        span = self._open(name, start, attrs)
        span["end"] = end
        return span

    def adopt_engine_runs(self, tracer, adopted: set[int]) -> None:
        """Copy a ``repro.telemetry.Tracer``'s not-yet-copied ``engine.run`` subtrees under
        the open span.  Rule spans carry accumulated (not contiguous)
        time, so they are laid end to end from their stratum's start."""
        for run in tracer.root.find_all("engine.run"):
            if id(run) in adopted:
                continue
            adopted.add(id(run))
            top = self.record("datalog:engine.run", run.started, run.ended,
                              **_numeric(run.attributes))
            self._stack.append(top["id"])
            for stratum in run.children:
                if not stratum.name.startswith("stratum"):
                    fallbacks = sum(1 for plan in stratum.children
                                    if "vector_fallback" in plan.attributes)
                    top["vector_fallbacks"] = fallbacks
                    continue
                mid = self.record(f"datalog:{stratum.name}", stratum.started, stratum.ended)
                self._stack.append(mid["id"])
                cursor = stratum.started
                for rule in stratum.children:
                    self.record(f"datalog:{rule.name}", cursor, cursor + rule.duration,
                                **_numeric(rule.attributes))
                    cursor += rule.duration
                self._stack.pop()
            self._stack.pop()

    # -- reading ---------------------------------------------------------

    def durations(self, name: str, **match) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name
                and all(s.get(k) == v for k, v in match.items())]

    def total(self, name: str, **match) -> float:
        return sum(self.durations(name, **match))

    def attribute_sum(self, prefix: str, key: str) -> float:
        return sum(s.get(key, 0) for s in self.spans if s["name"].startswith(prefix))

    def self_times(self) -> dict[str, float]:
        """Span name -> time not covered by its child spans."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        totals: dict[str, float] = {}
        for span in self.spans:
            own = max(0.0, span["end"] - span["start"] - covered[span["id"]])
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
        return totals

    def write(self, path: Path, env: dict) -> None:
        layers = sorted({s["name"].split(":")[0] for s in self.spans})
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "env": env, "workload": self.workload, "clock": "perf_counter seconds",
            "layers": layers, "self_time_s": self.self_times(), "spans": self.spans,
        }))


class NullSpanLog:
    """Tracing off: same surface, records nothing."""

    _span: dict = {}

    @contextmanager
    def span(self, name: str, **attrs):
        yield self._span

    def adopt_engine_runs(self, tracer, adopted) -> None:
        return None


def _numeric(attributes: dict) -> dict:
    return {k: v for k, v in attributes.items() if isinstance(v, (int, float))}
