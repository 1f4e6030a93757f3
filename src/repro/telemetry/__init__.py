"""Engine/pipeline telemetry: hierarchical spans, counters, JSON export.

Instrumented components (``datalog.Engine``, ``core.KnowledgeGraph``,
``core.ReasoningPipeline``, ``core.VadaLink``, the CLI) accept an
optional :class:`Tracer`; when none is given they use the zero-cost
:data:`NULL_TRACER` and tracing adds no measurable overhead.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "tracer": ("NULL_TRACER", "NullTracer", "Span", "Tracer"),
})
