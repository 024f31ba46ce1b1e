"""The metrics registry: counters, gauges, and latency histograms.

The tracer (:mod:`repro.obs.tracer`) answers "what exactly happened";
this module answers "how is the system doing *right now*" -- the
service-style view the ROADMAP's production north star needs.  A
:class:`MetricsRegistry` hangs off every
:class:`~repro.core.device.AmbitDevice` and is threaded through the
whole execution stack:

* the device folds executed bulk operations, their per-op accounted
  latency, busy time and plan-cache traffic from its statistics and
  plan cache whenever the registry is read,
* the :class:`~repro.engine.batch.BatchEngine` counts batches and
  fused-vs-fallback rows,
* the :class:`~repro.parallel.pool.WorkerPool` maintains per-worker
  health gauges (heartbeat, batches served, busy-ns, RSS) and crash
  counters fed by shard telemetry.

Exposition is pull-based and dependency-free: Prometheus text format
(:meth:`MetricsRegistry.render_prometheus`), a JSON snapshot
(:meth:`MetricsRegistry.snapshot`), JSON-lines sample dumps
(:meth:`MetricsRegistry.write_jsonl`), and an optional stdlib HTTP
server (:class:`MetricsServer`) serving ``/metrics`` and
``/metrics.json``.  ``repro metrics`` and ``repro top`` front all of
this on the command line.

Histograms use *fixed* bucket boundaries so that merging and resetting
are trivial and exposition is O(buckets); p50/p95/p99 are derived by
linear interpolation inside the owning bucket, the standard
Prometheus-side estimation, computed here so the CLI can print
quantiles without a query engine.
"""

from __future__ import annotations

import json
import math
import threading
import time
from bisect import bisect_left
from typing import (
    IO,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import ConfigError

#: Default accounted-latency buckets (nanoseconds).  Bulk operations on
#: the modelled DDR3-1600 device run ~100 ns (NOT) to ~400 ns (XOR), and
#: whole batches reach microseconds; a geometric ladder covers both.
DEFAULT_LATENCY_BUCKETS_NS: Tuple[float, ...] = (
    50.0, 100.0, 200.0, 400.0, 800.0, 1_600.0, 3_200.0,
    6_400.0, 12_800.0, 25_600.0, 102_400.0, 409_600.0,
)

LabelValues = Tuple[str, ...]

#: Exemplar aging window, in exemplar-carrying observations per
#: histogram child.  A bucket's retained exemplar is replaced -- even by
#: a smaller observation -- once this many tagged observations have
#: passed since it was captured, so the advertised trace id stays
#: within reach of the serving layer's 512-entry span ring instead of
#: pointing at a record-holder that aged out long ago.
EXEMPLAR_WINDOW = 256


def _format_value(value: float) -> str:
    """Prometheus-style number rendering (integers without ``.0``)."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    inner = ",".join(
        f'{n}="{_escape_label(str(v))}"' for n, v in zip(names, values)
    )
    return "{" + inner + "}"


class Counter:
    """A monotonically increasing count (reset only via the registry)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ConfigError(f"counter increments must be >= 0; got {amount}")
        self.value += amount


class Gauge:
    """A value that can go up and down (worker RSS, heartbeat, ...)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge value."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative) to the gauge."""
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount`` from the gauge."""
        self.value -= amount


class Histogram:
    """Fixed-bucket histogram with quantile derivation.

    ``bounds`` are inclusive upper bounds in ascending order; an
    implicit ``+Inf`` bucket catches the overflow.  ``observe`` is a
    bisect plus two adds, cheap enough for per-row accounting paths.
    """

    __slots__ = (
        "bounds", "bucket_counts", "count", "sum", "exemplars",
        "_exemplar_seq", "_tagged_count",
    )

    def __init__(self, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS_NS):
        bounds = tuple(float(b) for b in bounds)
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ):
            raise ConfigError(
                f"histogram bounds must be non-empty and ascending; got {bounds}"
            )
        self.bounds = bounds
        self.bucket_counts: List[int] = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        #: Per-bucket ``(value, trace_id)`` of the *largest recent*
        #: observation that carried an exemplar (``None`` until one
        #: does).  Kept per bucket, OpenMetrics style, so a single
        #: outlier in the +Inf bucket does not mask exemplars of the
        #: healthy buckets.
        self.exemplars: List[Optional[Tuple[float, str]]] = (
            [None] * (len(bounds) + 1)
        )
        #: Tagged-observation sequence number at which each bucket's
        #: exemplar was captured; drives the :data:`EXEMPLAR_WINDOW`
        #: aging policy.
        self._exemplar_seq: List[int] = [0] * (len(bounds) + 1)
        self._tagged_count = 0

    def observe(
        self, value: float, exemplar: Optional[str] = None, count: int = 1
    ) -> None:
        """Record ``count`` observations of ``value`` (one by default),
        optionally tagged with a trace id.

        The exemplar -- a request trace id -- is retained if it is the
        largest exemplar-carrying observation its bucket has seen
        *within the last* :data:`EXEMPLAR_WINDOW` *tagged observations*,
        turning "p99 is high" into "p99 is high, *look at this trace*".
        The sliding window matters: traces age out of the bounded span
        store, so an all-time record-holder would eventually advertise a
        trace id that no longer resolves.
        """
        index = bisect_left(self.bounds, value)
        self.bucket_counts[index] += count
        self.count += count
        self.sum += value * count
        if exemplar is not None:
            self._tagged_count += 1
            current = self.exemplars[index]
            if (
                current is None
                or value >= current[0]
                or self._tagged_count - self._exemplar_seq[index]
                    > EXEMPLAR_WINDOW
            ):
                self.exemplars[index] = (value, exemplar)
                self._exemplar_seq[index] = self._tagged_count

    def clear(self) -> None:
        """Zero counts, sum, and exemplars in place (bounds survive)."""
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.exemplars = [None] * (len(self.bounds) + 1)
        self._exemplar_seq = [0] * (len(self.bounds) + 1)
        self._tagged_count = 0

    def max_exemplar(self) -> Optional[Tuple[float, str]]:
        """The ``(value, trace_id)`` of the largest retained exemplar."""
        best: Optional[Tuple[float, str]] = None
        for entry in self.exemplars:
            if entry is not None and (best is None or entry[0] > best[0]):
                best = entry
        return best

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0 < q <= 1) by linear interpolation.

        The estimate assumes observations are uniform inside their
        bucket (the Prometheus ``histogram_quantile`` convention); the
        overflow bucket reports its lower bound.  Returns ``nan`` when
        the histogram is empty.
        """
        if not 0.0 < q <= 1.0:
            raise ConfigError(f"quantile must be in (0, 1]; got {q}")
        if self.count == 0:
            return math.nan
        rank = q * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.bucket_counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                lower = 0.0 if i == 0 else self.bounds[i - 1]
                if i == len(self.bounds):  # overflow bucket
                    return lower
                upper = self.bounds[i]
                # Clamp: `lower + (upper - lower)` can exceed `upper` by
                # a float ulp when the whole bucket is consumed, which
                # would break quantile monotonicity against a higher
                # quantile that lands in the overflow bucket.
                return min(
                    upper,
                    lower
                    + (upper - lower) * (rank - cumulative) / bucket_count,
                )
            cumulative += bucket_count
        return self.bounds[-1]  # pragma: no cover - rank <= count always hits

    def percentiles(self) -> Dict[str, float]:
        """The conventional p50/p95/p99 summary of the distribution."""
        return {
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


MetricInstance = Union[Counter, Gauge, Histogram]


class MetricFamily:
    """One named metric and its per-label-value children.

    An unlabeled family has exactly one child (the empty label tuple),
    reachable through the convenience proxies ``inc``/``set``/
    ``observe`` so call sites read like plain metric objects.
    """

    def __init__(
        self,
        name: str,
        kind: str,
        help: str,
        label_names: Tuple[str, ...],
        factory: Callable[[], MetricInstance],
        lock: threading.Lock,
    ):
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = label_names
        self._factory = factory
        self._lock = lock
        self._children: Dict[LabelValues, MetricInstance] = {}
        if not label_names:
            self._children[()] = factory()

    # ------------------------------------------------------------------
    def labels(self, **labels: object) -> MetricInstance:
        """The child for one label-value combination (created on first use)."""
        if tuple(sorted(labels)) != tuple(sorted(self.label_names)):
            raise ConfigError(
                f"metric {self.name!r} takes labels {self.label_names}; "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[n]) for n in self.label_names)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(key, self._factory())
        return child

    def remove(self, **labels: object) -> None:
        """Drop one child (e.g. a retired worker's gauges); no-op if absent."""
        key = tuple(str(labels[n]) for n in self.label_names)
        with self._lock:
            self._children.pop(key, None)

    @property
    def children(self) -> Dict[LabelValues, MetricInstance]:
        return dict(self._children)

    def _only(self) -> MetricInstance:
        if self.label_names:
            raise ConfigError(
                f"metric {self.name!r} is labeled {self.label_names}; "
                f"use .labels(...)"
            )
        return self._children[()]

    # Convenience proxies for unlabeled families -----------------------
    def inc(self, amount: float = 1.0) -> None:
        """``inc`` on the sole child of an unlabeled family."""
        self._only().inc(amount)  # type: ignore[union-attr]

    def set(self, value: float) -> None:
        """``set`` on the sole child of an unlabeled family."""
        self._only().set(value)  # type: ignore[union-attr]

    def dec(self, amount: float = 1.0) -> None:
        """``dec`` on the sole child of an unlabeled family."""
        self._only().dec(amount)  # type: ignore[union-attr]

    def observe(self, value: float, exemplar: Optional[str] = None) -> None:
        """``observe`` on the sole child of an unlabeled family."""
        self._only().observe(value, exemplar)  # type: ignore[union-attr, call-arg]

    @property
    def value(self) -> float:
        child = self._only()
        if isinstance(child, Histogram):
            raise ConfigError(f"histogram {self.name!r} has no scalar value")
        return child.value

    def assign(self, samples: Dict[LabelValues, Any]) -> None:
        """Replace every child at once with a fold's values.

        ``samples`` maps label values to a counter or gauge value, or,
        for a histogram, to its ``(value, count)`` observations.  Labels
        seen before and absent from ``samples`` read zero.  The new
        children are built aside and installed in one assignment, so two
        threads folding at once never add into each other's values.
        """
        children: Dict[LabelValues, MetricInstance] = {}
        for key in dict.fromkeys((*self._children, *samples)):
            child = children[key] = self._factory()
            sample = samples.get(key)
            if sample is None:
                continue
            if isinstance(child, Histogram):
                for value, count in sample:
                    child.observe(value, count=count)
            else:
                child.value = float(sample)
        with self._lock:
            self._children = children

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero every child in place (registrations survive)."""
        with self._lock:
            for key, child in self._children.items():
                if isinstance(child, Histogram):
                    child.clear()
                else:
                    child.value = 0.0


class MetricsRegistry:
    """A process-local collection of named metrics.

    Get-or-create semantics: asking twice for the same name returns the
    same family, so independently constructed components (controller,
    engine, pool) can share metrics without coordination; re-registering
    a name with a different type or label set raises
    :class:`~repro.errors.ConfigError`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: "Dict[str, MetricFamily]" = {}
        self._collectors: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def _family(
        self,
        name: str,
        kind: str,
        help: str,
        labels: Tuple[str, ...],
        factory: Callable[[], MetricInstance],
    ) -> MetricFamily:
        family = self._families.get(name)
        if family is not None:
            if family.kind != kind or family.label_names != labels:
                raise ConfigError(
                    f"metric {name!r} already registered as {family.kind} "
                    f"with labels {family.label_names}; cannot re-register "
                    f"as {kind} with labels {labels}"
                )
            return family
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = MetricFamily(name, kind, help, labels, factory, self._lock)
                self._families[name] = family
        return family

    def counter(
        self, name: str, help: str = "", labels: Iterable[str] = ()
    ) -> MetricFamily:
        """Register (or fetch) a counter family."""
        return self._family(name, "counter", help, tuple(labels), Counter)

    def gauge(
        self, name: str, help: str = "", labels: Iterable[str] = ()
    ) -> MetricFamily:
        """Register (or fetch) a gauge family."""
        return self._family(name, "gauge", help, tuple(labels), Gauge)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Iterable[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_NS,
    ) -> MetricFamily:
        """Register (or fetch) a fixed-bucket histogram family."""
        bounds = tuple(float(b) for b in buckets)
        return self._family(
            name, "histogram", help, tuple(labels), lambda: Histogram(bounds)
        )

    def register_collector(self, collect: Callable[[], None]) -> None:
        """Add a callback run by every :meth:`collect`.

        Collectors pull sampled state (plan-cache size, allocator
        high-water marks) and counts kept elsewhere into their families
        at scrape time, keeping hot paths free of bookkeeping they
        already do elsewhere.  The expositions collect once per read;
        :meth:`get` does not.
        """
        self._collectors.append(collect)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def get(self, name: str) -> Optional[MetricFamily]:
        """The family registered under ``name`` (or ``None``).

        A plain lookup: a collected family holds its value as of the
        last :meth:`collect`, so call that first to read it fresh.  A
        family that a collector creates (the device's ``ambit_ops_total``,
        ``ambit_op_latency_ns``, ``ambit_busy_ns_total`` and
        ``ambit_plan_cache_*``) is absent, so ``None``, until the first
        :meth:`collect`.
        """
        return self._families.get(name)

    def collect(self) -> None:
        """Run every registered collector (refreshes collected families)."""
        for collector in self._collectors:
            collector()

    def reset(self) -> None:
        """Zero every metric; registrations and collectors survive.

        This is the metrics half of the device's ``reset_stats``
        protocol -- the sharded facade additionally requires the worker
        pool to be quiesced first so half-merged worker telemetry can
        never survive into the fresh epoch.
        """
        for family in self._families.values():
            family.reset()

    # ------------------------------------------------------------------
    # Exposition
    # ------------------------------------------------------------------
    def render_prometheus(self, openmetrics: bool = False) -> str:
        """The registry in the Prometheus text exposition format.

        The default is the classic ``text/plain; version=0.0.4`` format,
        which has no exemplar syntax -- a trailing ``# {...}`` on a
        sample line is a parse error there, and a scraper that rejects
        one line drops the whole scrape.  Pass ``openmetrics=True`` for
        the OpenMetrics variant: bucket lines carry the retained trace-id
        exemplars and the exposition ends with the mandatory ``# EOF``
        terminator.  :class:`MetricsServer` picks the variant from the
        scraper's ``Accept`` header.
        """
        self.collect()
        lines: List[str] = []
        for name in sorted(self._families):
            family = self._families[name]
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {family.kind}")
            for values, child in sorted(family.children.items()):
                if isinstance(child, Histogram):
                    cumulative = 0
                    for index, (bound, bucket_count) in enumerate(zip(
                        tuple(child.bounds) + (math.inf,), child.bucket_counts
                    )):
                        cumulative += bucket_count
                        labels = _render_labels(
                            tuple(family.label_names) + ("le",),
                            values + (_format_value(bound),),
                        )
                        line = f"{name}_bucket{labels} {cumulative}"
                        exemplar = (
                            child.exemplars[index] if openmetrics else None
                        )
                        if exemplar is not None:
                            # OpenMetrics exemplar syntax: the trace id
                            # of the bucket's largest tagged observation.
                            value, trace_id = exemplar
                            line += (
                                f' # {{trace_id="{_escape_label(trace_id)}"}}'
                                f" {_format_value(value)}"
                            )
                        lines.append(line)
                    base = _render_labels(family.label_names, values)
                    lines.append(f"{name}_sum{base} {_format_value(child.sum)}")
                    lines.append(f"{name}_count{base} {child.count}")
                else:
                    labels = _render_labels(family.label_names, values)
                    lines.append(f"{name}{labels} {_format_value(child.value)}")
        if openmetrics:
            lines.append("# EOF")
        return "\n".join(lines) + "\n"

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready snapshot of every metric.

        Histogram samples include the fixed buckets *and* the derived
        p50/p95/p99 so downstream consumers never re-implement the
        interpolation.
        """
        self.collect()
        snapshot: Dict[str, Any] = {}
        for name in sorted(self._families):
            family = self._families[name]
            samples = []
            for values, child in sorted(family.children.items()):
                labels = dict(zip(family.label_names, values))
                if isinstance(child, Histogram):
                    pct = child.percentiles()
                    sample = {
                        "labels": labels,
                        "count": child.count,
                        "sum": child.sum,
                        "buckets": {
                            _format_value(b): c
                            for b, c in zip(
                                tuple(child.bounds) + (math.inf,),
                                child.bucket_counts,
                            )
                        },
                        **{
                            k: (None if math.isnan(v) else v)
                            for k, v in pct.items()
                        },
                    }
                    exemplars = {
                        _format_value(b): {"value": e[0], "trace": e[1]}
                        for b, e in zip(
                            tuple(child.bounds) + (math.inf,),
                            child.exemplars,
                        )
                        if e is not None
                    }
                    if exemplars:
                        sample["exemplars"] = exemplars
                    samples.append(sample)
                else:
                    samples.append({"labels": labels, "value": child.value})
            snapshot[name] = {
                "type": family.kind,
                "help": family.help,
                "samples": samples,
            }
        return snapshot

    def write_jsonl(self, target: Union[str, IO[str]]) -> int:
        """Write one JSON line per metric sample; returns the line count.

        Each line is ``{"metric": ..., "type": ..., ...sample}`` --
        flat, appendable, and greppable, the same spirit as the
        tracer's :class:`~repro.obs.sinks.JsonLinesSink`.
        """
        snapshot = self.snapshot()
        handle: IO[str]
        owns = isinstance(target, str)
        handle = open(target, "w") if isinstance(target, str) else target
        lines = 0
        try:
            for name, family in snapshot.items():
                for sample in family["samples"]:
                    record = {"metric": name, "type": family["type"], **sample}
                    handle.write(json.dumps(record, sort_keys=True))
                    handle.write("\n")
                    lines += 1
            handle.flush()
        finally:
            if owns:
                handle.close()
        return lines


class MetricsServer:
    """A tiny stdlib HTTP endpoint for live exposition.

    Serves ``/metrics`` (Prometheus text) and ``/metrics.json`` (the
    snapshot) from a daemon thread; every request re-collects, so the
    numbers are live.  ``/metrics`` negotiates the exposition format
    from the ``Accept`` header: scrapers that advertise
    ``application/openmetrics-text`` (Prometheus does when exemplar
    ingestion is on) get the OpenMetrics variant with trace-id
    exemplars and the ``# EOF`` terminator; everyone else gets the
    classic ``text/plain; version=0.0.4`` format, where exemplar syntax
    would be a parse error.  Intended for ``repro metrics --serve`` and
    for scraping long benchmark runs -- not a production web server.
    """

    def __init__(self, registry: MetricsRegistry, port: int = 0,
                 host: str = "127.0.0.1"):
        from http.server import BaseHTTPRequestHandler, HTTPServer

        server_registry = registry

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - http.server API
                if self.path.split("?")[0] == "/metrics":
                    accept = self.headers.get("Accept", "")
                    openmetrics = "application/openmetrics-text" in accept
                    body = server_registry.render_prometheus(
                        openmetrics=openmetrics
                    ).encode()
                    if openmetrics:
                        ctype = (
                            "application/openmetrics-text; "
                            "version=1.0.0; charset=utf-8"
                        )
                    else:
                        ctype = "text/plain; version=0.0.4; charset=utf-8"
                elif self.path.split("?")[0] == "/metrics.json":
                    body = json.dumps(
                        server_registry.snapshot(), sort_keys=True
                    ).encode()
                    ctype = "application/json"
                else:
                    self.send_error(404, "try /metrics or /metrics.json")
                    return
                self.send_response(200)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args: object) -> None:
                pass  # keep scrapes out of stderr

        self.registry = registry
        self._server = HTTPServer((host, port), Handler)
        self._thread = threading.Thread(
            target=self._server.serve_forever, daemon=True
        )
        self._thread.start()

    @property
    def port(self) -> int:
        """The bound TCP port (useful with ``port=0``)."""
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}/metrics"

    def close(self) -> None:
        """Stop serving and release the socket (idempotent)."""
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5)

    def __enter__(self) -> "MetricsServer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


# ----------------------------------------------------------------------
# Snapshot round-trip (remote "repro top --url")
# ----------------------------------------------------------------------
def registry_from_snapshot(snapshot: Dict[str, Any]) -> MetricsRegistry:
    """Rebuild a registry from a :meth:`MetricsRegistry.snapshot` payload.

    The inverse of exposition, used by ``repro top --url`` to render
    the health view of a *remote* process from its ``/metrics.json``
    endpoint.  Histogram bucket bounds are recovered from the
    snapshot's own keys and re-sorted numerically -- JSON transports
    (and ``sort_keys`` serializers in particular) are free to reorder
    object keys, and "1024" sorts before "16" as a string -- so
    families with non-default buckets, e.g. the serving layer's wide
    request-latency histogram, round-trip exactly.  Families
    snapshotted with no samples carry no label schema to rebuild and
    are skipped; they would render as empty sections anyway.
    """
    registry = MetricsRegistry()
    for name, data in snapshot.items():
        samples = data.get("samples", [])
        if not samples:
            continue
        kind = data.get("type", "gauge")
        help_text = data.get("help", "")
        label_names = tuple(samples[0].get("labels", {}).keys())
        if kind == "histogram":
            bounds = sorted(
                float(key)
                for key in samples[0]["buckets"]
                if key not in ("+Inf", "-Inf")
            )
            family = registry.histogram(
                name, help_text, labels=label_names, buckets=bounds
            )
            for sample in samples:
                child = family.labels(**sample.get("labels", {}))
                by_bound = {
                    (math.inf if key == "+Inf" else float(key)): int(count)
                    for key, count in sample["buckets"].items()
                }
                counts = [by_bound[b] for b in bounds]
                counts.append(by_bound.get(math.inf, 0))
                child.bucket_counts = counts  # type: ignore[union-attr]
                child.count = int(sample.get("count", sum(counts)))  # type: ignore[union-attr]
                child.sum = float(sample.get("sum", 0.0))  # type: ignore[union-attr]
                exemplars = sample.get("exemplars", {})
                if exemplars:
                    by_key = {
                        (math.inf if key == "+Inf" else float(key)):
                            (float(entry["value"]), str(entry["trace"]))
                        for key, entry in exemplars.items()
                    }
                    restored = [by_key.get(b) for b in bounds]
                    restored.append(by_key.get(math.inf))
                    child.exemplars = restored  # type: ignore[union-attr]
        else:
            ctor = registry.counter if kind == "counter" else registry.gauge
            family = ctor(name, help_text, labels=label_names)
            for sample in samples:
                child = family.labels(**sample.get("labels", {}))
                child.value = float(sample.get("value", 0.0))  # type: ignore[union-attr]
    return registry


# ----------------------------------------------------------------------
# The "repro top" view
# ----------------------------------------------------------------------
def format_top(registry: MetricsRegistry, now: Optional[float] = None) -> str:
    """Render a ``top``-style text view of a device registry.

    Four sections: per-op accounted latency (count + p50/p95/p99 from
    the fixed-bucket histograms, sorted by total busy time), the plan
    cache, the serving layer (per-command request counts and latency
    quantiles, coalescing and flow-control totals), and per-worker
    health (batches served, busy-ns, RSS, heartbeat age).  Sections
    with no data are elided.
    """
    registry.collect()
    now = time.time() if now is None else now
    lines: List[str] = []

    latency = registry.get("ambit_op_latency_ns")
    if latency is not None and any(
        c.count for c in latency.children.values()  # type: ignore[union-attr]
    ):
        lines.append(
            f"{'op':>8} {'count':>9} {'p50 ns':>9} {'p95 ns':>9} "
            f"{'p99 ns':>9} {'total ns':>13}"
        )
        rows = []
        for values, child in latency.children.items():
            if not child.count:  # type: ignore[union-attr]
                continue
            pct = child.percentiles()  # type: ignore[union-attr]
            rows.append((child.sum, values[0], child.count, pct))  # type: ignore[union-attr]
        for total, op, count, pct in sorted(rows, reverse=True):
            lines.append(
                f"{op:>8} {count:>9} {pct['p50']:>9.0f} {pct['p95']:>9.0f} "
                f"{pct['p99']:>9.0f} {total:>13.1f}"
            )

    hits = registry.get("ambit_plan_cache_hits_total")
    misses = registry.get("ambit_plan_cache_misses_total")
    plans = registry.get("ambit_plan_cache_plans")
    if hits is not None and misses is not None:
        total = hits.value + misses.value
        rate = 100.0 * hits.value / total if total else 0.0
        size = int(plans.value) if plans is not None else 0
        lines.append("")
        lines.append(
            f"plan cache: {int(hits.value)} hits / {int(misses.value)} "
            f"misses ({rate:.1f}% hit rate), {size} compiled plan(s)"
        )

    serve_requests = registry.get("ambit_serve_requests_total")
    if serve_requests is not None and serve_requests.children:
        latency = registry.get("ambit_serve_request_latency_ns")
        by_cmd: Dict[str, List[int]] = {}
        for (cmd, status), child in serve_requests.children.items():
            bucket = by_cmd.setdefault(cmd, [0, 0])
            bucket[0 if status == "ok" else 1] += int(child.value)  # type: ignore[union-attr]
        lines.append("")
        lines.append(
            f"{'serve cmd':>10} {'ok':>9} {'errors':>8} {'p50 ms':>9} "
            f"{'p95 ms':>9} {'p99 ms':>9}"
        )
        for cmd in sorted(by_cmd):
            ok_count, err_count = by_cmd[cmd]
            pct = {"p50": math.nan, "p95": math.nan, "p99": math.nan}
            if latency is not None:
                child = latency.children.get((cmd,))
                if child is not None and child.count:  # type: ignore[union-attr]
                    pct = child.percentiles()  # type: ignore[union-attr]
            lines.append(
                f"{cmd:>10} {ok_count:>9} {err_count:>8} "
                f"{pct['p50'] / 1e6:>9.2f} {pct['p95'] / 1e6:>9.2f} "
                f"{pct['p99'] / 1e6:>9.2f}"
            )

        def _sum(name: str) -> int:
            family = registry.get(name)
            if family is None:
                return 0
            return int(sum(
                child.value  # type: ignore[union-attr]
                for child in family.children.values()
                if hasattr(child, "value")
            ))

        fused = _sum("ambit_serve_coalesced_batches_total")
        dispatched = _sum("ambit_serve_batches_total")
        lines.append(
            f"serve: {fused}/{dispatched} batches coalesced, "
            f"backpressure {_sum('ambit_serve_backpressure_total')}, "
            f"quota rejections {_sum('ambit_serve_quota_rejections_total')}, "
            f"queue depth {_sum('ambit_serve_queue_depth')}"
        )
        lines.append(
            f"serve: {_sum('ambit_serve_tenants')} tenant(s), "
            f"{_sum('ambit_serve_vectors')} vector(s), "
            f"{_sum('ambit_serve_slots_free')} free slot(s)"
        )
        errors = registry.get("ambit_serve_errors_total")
        if errors is not None and errors.children:
            by_code = sorted(
                ((code, int(child.value))  # type: ignore[union-attr]
                 for (code,), child in errors.children.items()
                 if child.value),  # type: ignore[union-attr]
                key=lambda item: (-item[1], item[0]),
            )
            if by_code:
                lines.append("serve errors: " + "  ".join(
                    f"{code}={count}" for code, count in by_code
                ))
        if latency is not None:
            best = None
            for (cmd,), child in latency.children.items():
                exemplar = child.max_exemplar()  # type: ignore[union-attr]
                if exemplar is not None and (
                    best is None or exemplar[0] > best[0]
                ):
                    best = (exemplar[0], exemplar[1], cmd)
            if best is not None:
                lines.append(
                    f"slowest traced request: {best[0] / 1e6:.2f} ms "
                    f"({best[2]}) trace {best[1]} -- inspect with: "
                    f"repro spans {best[1]} --connect HOST:PORT"
                )

    batches = registry.get("ambit_worker_batches_total")
    if batches is not None and batches.children:
        busy = registry.get("ambit_worker_busy_ns_total")
        rss = registry.get("ambit_worker_rss_bytes")
        beat = registry.get("ambit_worker_heartbeat_ts")
        last = registry.get("ambit_worker_last_batch")
        lines.append("")
        lines.append(
            f"{'worker':>10} {'batches':>8} {'busy ns':>13} {'rss MiB':>9} "
            f"{'beat age s':>11} {'last batch':>11}"
        )
        for (pid,), child in sorted(batches.children.items()):
            def _val(family: Optional[MetricFamily]) -> float:
                if family is None:
                    return 0.0
                inner = family.children.get((pid,))
                return inner.value if inner is not None else 0.0  # type: ignore[union-attr]

            beat_ts = _val(beat)
            age = now - beat_ts if beat_ts else math.nan
            lines.append(
                f"{pid:>10} {int(child.value):>8} {_val(busy):>13.1f} "  # type: ignore[union-attr]
                f"{_val(rss) / 2**20:>9.1f} {age:>11.2f} {int(_val(last)):>11}"
            )
        crashes = registry.get("ambit_worker_crashes_total")
        if crashes is not None and crashes.value:
            lines.append(f"worker crashes: {int(crashes.value)}")

    if not lines:
        lines.append("(no metrics recorded yet)")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Fault-lifecycle metric families (see docs/RELIABILITY.md)
# ----------------------------------------------------------------------

#: Fault kinds the injection/recovery layer labels events with.
FAULT_KINDS = (
    "stuck_row",
    "tra_flip",
    "dcc",
    "worker_crash",
    "worker_stall",
)


def fault_counters(registry: MetricsRegistry) -> Dict[str, MetricFamily]:
    """The four ``ambit_faults_*`` counter families, keyed by stage.

    Every layer that observes a fault event (the injector, the
    fault-tolerant session, the sharded device's crash-retry loop)
    registers through this helper so the families always carry the same
    ``kind`` label schema -- the registry rejects mismatched re-
    registration, so a single definition point keeps them coherent.
    """
    return {
        "injected": registry.counter(
            "ambit_faults_injected_total",
            "Faults injected into the device, by kind",
            labels=("kind",),
        ),
        "detected": registry.counter(
            "ambit_faults_detected_total",
            "Faults detected at runtime, by kind",
            labels=("kind",),
        ),
        "recovered": registry.counter(
            "ambit_faults_recovered_total",
            "Detected faults recovered (verified bit-exact), by kind",
            labels=("kind",),
        ),
        "unrecovered": registry.counter(
            "ambit_faults_unrecovered_total",
            "Detected faults that recovery could not repair, by kind",
            labels=("kind",),
        ),
    }
