"""Experiment harness: timing, series collection and table rendering.

Every benchmark driver in ``benchmarks/`` builds an :class:`Experiment`,
runs its scenarios and prints the same series the paper's figure reports
— one row per x-value, columns per measured quantity — so the output can
be compared side by side with the published plot.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Measurement:
    """One (x, metrics) point of an experiment series.

    ``spans`` optionally carries the telemetry span tree of the measured
    run (``Tracer.to_dict()``), so benchmark records say not only *how
    long* but *where the time went*.
    """

    x: Any
    metrics: dict[str, float]
    spans: dict | None = None


@dataclass
class Experiment:
    """A named series of measurements (one paper figure or table)."""

    name: str
    x_label: str
    measurements: list[Measurement] = field(default_factory=list)

    def record(self, x: Any, spans: dict | None = None, **metrics: float) -> None:
        self.measurements.append(Measurement(x, metrics, spans=spans))

    def span_trees(self) -> list[tuple[Any, dict]]:
        """The (x, span tree) pairs of measurements that carried one."""
        return [(m.x, m.spans) for m in self.measurements if m.spans is not None]

    def series(self, metric: str) -> list[tuple[Any, float]]:
        return [(m.x, m.metrics[metric]) for m in self.measurements if metric in m.metrics]

    def render(self) -> str:
        """A fixed-width table: x column followed by each metric column."""
        if not self.measurements:
            return f"== {self.name} ==\n(no measurements)"
        metric_names: list[str] = []
        for measurement in self.measurements:
            for name in measurement.metrics:
                if name not in metric_names:
                    metric_names.append(name)
        header = [self.x_label] + metric_names
        rows = [header]
        for measurement in self.measurements:
            row = [_fmt(measurement.x)]
            for name in metric_names:
                value = measurement.metrics.get(name)
                row.append(_fmt(value) if value is not None else "-")
            rows.append(row)
        widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
        lines = [f"== {self.name} =="]
        for index, row in enumerate(rows):
            lines.append("  ".join(cell.rjust(width) for cell, width in zip(row, widths)))
            if index == 0:
                lines.append("  ".join("-" * width for width in widths))
        return "\n".join(lines)

    def print(self) -> None:
        print(self.render())

    def ascii_plot(
        self,
        metric: str,
        width: int = 60,
        height: int = 12,
        logx: bool = False,
        logy: bool = False,
    ) -> str:
        """A terminal scatter plot of one metric series.

        Renders the same curve the paper's figure shows, so the shape can
        be eyeballed straight from the benchmark output.  ``logx``/``logy``
        switch the axes to log scale (for the paper's log-log figures).
        """
        series = [
            (float(x), float(value))
            for x, value in self.series(metric)
            if isinstance(x, (int, float))
        ]
        if len(series) < 2:
            return f"({metric}: not enough numeric points to plot)"

        def transform(value: float, log: bool) -> float:
            return math.log10(max(value, 1e-12)) if log else value

        xs = [transform(x, logx) for x, _ in series]
        ys = [transform(y, logy) for _, y in series]
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(ys), max(ys)
        x_span = (x_hi - x_lo) or 1.0
        y_span = (y_hi - y_lo) or 1.0

        grid = [[" "] * width for _ in range(height)]
        for x, y in zip(xs, ys):
            column = round((x - x_lo) / x_span * (width - 1))
            row = height - 1 - round((y - y_lo) / y_span * (height - 1))
            grid[row][column] = "*"

        raw_y_hi = max(value for _, value in series)
        raw_y_lo = min(value for _, value in series)
        lines = [f"{self.name} — {metric}"
                 f"{' (log x)' if logx else ''}{' (log y)' if logy else ''}"]
        for index, row in enumerate(grid):
            label = f"{raw_y_hi:.3g}" if index == 0 else (
                f"{raw_y_lo:.3g}" if index == height - 1 else ""
            )
            lines.append(f"{label:>9} |{''.join(row)}")
        raw_x_lo = min(x for x, _ in series)
        raw_x_hi = max(x for x, _ in series)
        lines.append(" " * 10 + "+" + "-" * width)
        lines.append(f"{'':>10} {raw_x_lo:<.3g}{'':>{max(1, width - 12)}}{raw_x_hi:.3g}")
        return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.3f}"
        return f"{value:.4f}"
    return str(value)


def timed(function: Callable[[], Any]) -> tuple[Any, float]:
    """Run ``function`` once; return (result, elapsed seconds)."""
    started = time.perf_counter()
    result = function()
    return result, time.perf_counter() - started


def timed_traced(function: Callable[[Any], Any]) -> tuple[Any, float, dict]:
    """Run ``function(tracer)`` once under a live telemetry tracer.

    Returns (result, elapsed seconds, span tree dict) — the span tree is
    ready to attach to an :meth:`Experiment.record` call via ``spans=``.
    """
    from ..telemetry import Tracer

    tracer = Tracer("bench")
    started = time.perf_counter()
    result = function(tracer)
    elapsed = time.perf_counter() - started
    tracer.finish()
    return result, elapsed, tracer.to_dict()


def traced_comparisons(tracer) -> int:
    """The pair comparisons of a ``ReasoningPipeline.family_links()`` run
    under ``tracer``: the rows its ``fl_<class>`` rules passed to
    ``$link_probability``, summed over the link classes.  A pair counts
    once per block its two persons share (multi-pass blocking puts a
    pair in several)."""
    from ..core.pipeline import FAMILY_LINK_CLASSES

    return sum(
        span.attributes.get("external_rows", 0)
        for link_class in FAMILY_LINK_CLASSES
        for span in tracer.root.find_all(f"rule:fl_{link_class}")
    )


def precision_recall(found: set, truth: set) -> tuple[float, float]:
    """Precision and recall of the links ``found`` against ``truth``."""
    hits = len(found & truth)
    return (hits / len(found) if found else 0.0, hits / len(truth) if truth else 0.0)


def timed_repeat(
    function: Callable[[], Any], repeats: int = 3
) -> tuple[Any, float, float]:
    """Run ``function`` ``repeats`` times; return (last result, mean, stdev)."""
    durations: list[float] = []
    result: Any = None
    for _ in range(repeats):
        result, elapsed = timed(function)
        durations.append(elapsed)
    mean = statistics.fmean(durations)
    spread = statistics.stdev(durations) if len(durations) > 1 else 0.0
    return result, mean, spread


def check_shape(
    series: list[tuple[Any, float]],
    expectation: str,
    tolerance: float = 0.0,
) -> bool:
    """Validate the qualitative *shape* of a series.

    ``expectation`` is one of "increasing", "decreasing",
    "non-increasing", "non-decreasing".  ``tolerance`` allows small
    violations (fraction of the local value), since timing data is noisy.
    """
    values = [float(v) for _, v in series]
    if len(values) < 2:
        return True
    for before, after in zip(values, values[1:]):
        slack = tolerance * max(abs(before), 1e-12)
        if expectation in ("increasing", "non-decreasing") and after < before - slack:
            return False
        if expectation in ("decreasing", "non-increasing") and after > before + slack:
            return False
    return True
