"""Structured telemetry: tracing spans, solver metrics, run reports.

Zero-dependency (stdlib-only) observability for the simulation stack.
Three ways in:

* programmatic — ``SimOptions(telemetry=Telemetry.to_jsonl("run.jsonl"))``
  (or :meth:`Telemetry.capturing` for in-memory inspection in tests);
* environment — ``REPRO_TRACE=run.jsonl`` traces every instrumented
  entry point in the process with no code changes (add
  ``REPRO_PROFILE=1`` to attach the sampling profiler to campaigns);
* post-hoc — ``RunReport.from_jsonl("run.jsonl").render()`` turns either
  into a triage summary (slowest defects, convergence outliers,
  per-phase time breakdown, profiler hotspots, histogram quantiles,
  detector verdict table).

Every event carries the ``trace_id`` minted at the root tracer;
:class:`TraceContext` propagates it across process boundaries
(``parallel_map`` workers) so multi-process traces correlate by id.
:mod:`repro.telemetry.export` converts traces to Chrome/Perfetto trace
JSON and collapsed flamegraph stacks.

See docs/observability.md for the span hierarchy, the JSONL schema and
worked examples.
"""

from .export import (chrome_trace_events, collapsed_stacks, export_trace,
                     write_chrome_trace, write_collapsed)
from .metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                      NEWTON_COUNTERS, SUMMARY_QUANTILES,
                      record_newton_stats)
from .profile import (DEFAULT_INTERVAL_S, PROFILE_ENV_VAR,
                      SamplingProfiler, aggregate_hotspots, profiler_for)
from .report import RunReport
from .runtime import TRACE_ENV_VAR, Telemetry, from_env, telemetry_for
from .sinks import InMemorySink, JsonlSink, read_jsonl
from .trace import Span, TraceContext, Tracer, new_trace_id

__all__ = [
    "Counter",
    "DEFAULT_INTERVAL_S",
    "Gauge",
    "Histogram",
    "InMemorySink",
    "JsonlSink",
    "MetricsRegistry",
    "NEWTON_COUNTERS",
    "PROFILE_ENV_VAR",
    "RunReport",
    "SUMMARY_QUANTILES",
    "SamplingProfiler",
    "Span",
    "TRACE_ENV_VAR",
    "Telemetry",
    "TraceContext",
    "Tracer",
    "aggregate_hotspots",
    "chrome_trace_events",
    "collapsed_stacks",
    "export_trace",
    "from_env",
    "new_trace_id",
    "profiler_for",
    "read_jsonl",
    "record_newton_stats",
    "telemetry_for",
    "write_chrome_trace",
    "write_collapsed",
]
