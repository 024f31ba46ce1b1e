"""Trace sinks: where the tracer's event stream goes.

Sinks are deliberately tiny -- ``emit(event)`` plus ``close()`` -- so a
tracer can fan one command stream out to several consumers at once
(ring buffer for tests, Chrome trace for humans, counters for the
profiler) without the chip model knowing any of them exist.
"""

from __future__ import annotations

import json
from collections import deque
from typing import IO, Deque, Iterator, List, Optional, Union

from repro.obs.counters import CounterSet
from repro.obs.events import KIND_COMMAND, TraceEvent


class TraceSink:
    """Base sink: subclasses override :meth:`emit` (and maybe ``close``)."""

    def emit(self, event: TraceEvent) -> None:
        """Consume one event."""
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources; further emits are undefined."""


class RingBufferSink(TraceSink):
    """Keep the last ``capacity`` events in memory (unbounded if None)."""

    def __init__(self, capacity: Optional[int] = None):
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)

    def emit(self, event: TraceEvent) -> None:
        """Append the event (evicting the oldest when at capacity)."""
        self._events.append(event)

    # ------------------------------------------------------------------
    @property
    def events(self) -> List[TraceEvent]:
        return list(self._events)

    def commands(self) -> List[TraceEvent]:
        """Only the bus-command events, in issue order."""
        return [e for e in self._events if e.kind == KIND_COMMAND]

    def of_kind(self, kind: str) -> List[TraceEvent]:
        """Events of one kind, in issue order."""
        return [e for e in self._events if e.kind == kind]

    def clear(self) -> None:
        """Drop all buffered events."""
        self._events.clear()

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)


class CounterSink(TraceSink):
    """Stream events into a :class:`~repro.obs.counters.CounterSet`."""

    def __init__(self):
        self.counters = CounterSet()

    def emit(self, event: TraceEvent) -> None:
        """Fold the event into the running counters."""
        self.counters.observe(event)

    def reset(self) -> None:
        """Start a fresh, empty counter set."""
        self.counters = CounterSet()


class JsonLinesSink(TraceSink):
    """Write one JSON object per event to a file (or file-like object)."""

    def __init__(self, target: Union[str, IO[str]]):
        if isinstance(target, str):
            self._handle: IO[str] = open(target, "w")
            self._owns_handle = True
        else:
            self._handle = target
            self._owns_handle = False

    def emit(self, event: TraceEvent) -> None:
        """Write the event as one JSON line."""
        self._handle.write(json.dumps(event.to_json(), sort_keys=True))
        self._handle.write("\n")

    def close(self) -> None:
        """Flush, and close the handle if this sink opened it."""
        self._handle.flush()
        if self._owns_handle:
            self._handle.close()


class ChromeTraceSink(TraceSink):
    """Accumulate Chrome ``trace_event`` records; write JSON on close.

    The output loads directly in ``chrome://tracing`` and Perfetto.
    Layout: one process, pid 0 ("ambit-device"), holding per bank a
    command lane (tid ``2*bank``) carrying the raw ACT/PRE/RD/WR events
    and an operation lane (tid ``2*bank + 1``) carrying primitive and
    bulk-op spans.  Timestamps convert from model nanoseconds to the
    format's microseconds.
    """

    #: tid used for events with no bank (REF, scheduler-level spans).
    GLOBAL_LANE = 10_000
    #: Chrome pid of every event.
    PID = 0

    def __init__(self, target: Union[str, IO[str]]):
        self._target = target
        self._records: List[dict] = []
        self._lanes_seen: set = set()
        self._closed = False

    # ------------------------------------------------------------------
    def _lane(self, event: TraceEvent) -> int:
        if event.bank is None:
            return self.GLOBAL_LANE
        return 2 * event.bank + (0 if event.kind == KIND_COMMAND else 1)

    def emit(self, event: TraceEvent) -> None:
        """Buffer the event as a Chrome "complete" ("X") record."""
        lane = self._lane(event)
        self._lanes_seen.add((lane, event.bank, event.kind))
        args = {"kind": event.kind, "seq": event.seq}
        for key in ("subarray", "row", "column"):
            value = getattr(event, key)
            if value is not None:
                args[key] = value
        if event.wordlines != 1:
            args["wordlines"] = event.wordlines
        if event.energy_pj:
            args["energy_pj"] = round(event.energy_pj, 3)
        args.update(event.attrs)
        self._records.append(
            {
                "name": event.name,
                "cat": event.kind,
                "ph": "X",  # complete event: ts + dur
                "ts": event.ts_ns / 1000.0,
                "dur": max(event.dur_ns, 0.001) / 1000.0,
                "pid": self.PID,
                "tid": lane,
                "args": args,
            }
        )

    def _metadata(self) -> List[dict]:
        records = []
        if self._lanes_seen:
            records.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": self.PID,
                    "args": {"name": "ambit-device"},
                }
            )
        for lane, bank, kind in sorted(self._lanes_seen):
            if lane == self.GLOBAL_LANE:
                label = "global"
            else:
                label = f"bank{bank}/{'cmds' if lane % 2 == 0 else 'ops'}"
            records.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": self.PID,
                    "tid": lane,
                    "args": {"name": label},
                }
            )
        return records

    def trace_document(self) -> dict:
        """The complete ``trace_event`` JSON document (also written by
        :meth:`close`)."""
        return {
            "traceEvents": self._metadata() + self._records,
            "displayTimeUnit": "ns",
        }

    def close(self) -> None:
        """Write the trace document to the target (idempotent)."""
        if self._closed:
            return
        self._closed = True
        document = self.trace_document()
        if isinstance(self._target, str):
            with open(self._target, "w") as handle:
                json.dump(document, handle)
        else:
            json.dump(document, self._target)
            self._target.flush()
