"""Observability: structured command tracing and per-operation profiling.

Everything Ambit claims -- latency, energy, interference -- reduces to a
*command sequence*: the AAP/AP chains of Figure 8 streamed at the Table 1
addresses.  This package makes that stream a first-class, inspectable
artifact beyond the counts ``chip.trace`` keeps:

* :class:`~repro.obs.tracer.Tracer` -- attached at the chip's command
  choke point (:meth:`repro.dram.chip.DramChip.execute`), it turns every
  ACT/PRE/RD/WR/REF plus every AAP/AP primitive and bulk operation into
  a typed :class:`~repro.obs.events.TraceEvent` carrying the issue
  clock, latency and energy, fanned out to pluggable sinks.  Fused
  batches emit the same events from command schedules bound from their
  plan templates, so tracing never changes the execution path.
* Sinks (:mod:`repro.obs.sinks`) -- in-memory ring buffer, JSON-lines
  file, and Chrome ``trace_event`` format (load the output in
  ``chrome://tracing`` or https://ui.perfetto.dev), plus a streaming
  :class:`~repro.obs.counters.CounterSink`.
* :class:`~repro.obs.counters.CounterSet` -- per-operation counters
  (AAPs, APs, TRAs, RowClone FPM/PSM copies, busy-ns, pJ) with delta
  arithmetic.
* :func:`~repro.obs.profiler.profile` -- a context manager (exposed as
  :meth:`repro.core.device.AmbitDevice.profile`) aggregating counters
  and per-bulk-op summaries over a region of work.
* :class:`~repro.obs.metrics.MetricsRegistry` -- live counters, gauges
  and fixed-bucket latency histograms threaded through the controller,
  plan cache and batch engine, with Prometheus-text /
  JSON / JSON-lines exposition (``repro metrics``, ``repro top``).
* :mod:`repro.obs.spans` -- end-to-end *request* spans for the serving
  layer: per-request critical-path breakdowns that tile the wall clock,
  a bounded ring of recent traces (``repro spans``), and a flight
  recorder that dumps the ring to JSONL when a request ends badly.

The same machinery backs the golden-trace regression suite: the
``command_log`` pytest fixture (``tests/conftest.py``) records exact
command sequences so microprogram drift is a visible diff.
"""

from repro.obs.capture import CommandLog
from repro.obs.counters import CounterSet, OpStats
from repro.obs.events import TraceEvent
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_NS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    MetricsServer,
    format_top,
)
from repro.obs.profiler import ProfileReport, profile
from repro.obs.spans import (
    STAGES,
    FlightRecorder,
    RequestSpanCtx,
    RequestTrace,
    Span,
    SpanStore,
    chrome_trace,
    format_spans_table,
    format_trace_tree,
    validate_trace,
)
from repro.obs.sinks import (
    ChromeTraceSink,
    CounterSink,
    JsonLinesSink,
    RingBufferSink,
    TraceSink,
)
from repro.obs.tracer import Tracer

__all__ = [
    "ChromeTraceSink",
    "CommandLog",
    "Counter",
    "CounterSet",
    "CounterSink",
    "DEFAULT_LATENCY_BUCKETS_NS",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "JsonLinesSink",
    "MetricFamily",
    "MetricsRegistry",
    "MetricsServer",
    "OpStats",
    "ProfileReport",
    "RequestSpanCtx",
    "RequestTrace",
    "RingBufferSink",
    "STAGES",
    "Span",
    "SpanStore",
    "TraceSink",
    "TraceEvent",
    "Tracer",
    "chrome_trace",
    "format_spans_table",
    "format_top",
    "format_trace_tree",
    "profile",
    "validate_trace",
]
