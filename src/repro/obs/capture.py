"""Command-log capture: the backbone of golden-trace testing.

:class:`CommandLog` attaches a tracer (ring buffer + counters) to a
device, opens a capture on its command trace
(:meth:`repro.dram.commands.CommandTrace.capture`), and exposes the
commands executed or charged since creation (or the last
:meth:`CommandLog.clear`) in the :mod:`repro.dram.trace_io` text format,
plus the counter deltas.  Tests use it through the ``command_log``
pytest fixture (``tests/conftest.py``) to assert *exact* command
sequences -- any change to microprogram sequencing becomes a visible
diff against the checked-in golden traces instead of silent drift.
"""

from __future__ import annotations

from typing import List

from repro.dram.trace_io import dump_trace_with_data
from repro.obs.counters import CounterSet
from repro.obs.events import TraceEvent
from repro.obs.sinks import CounterSink, RingBufferSink
from repro.obs.tracer import Tracer


class CommandLog:
    """Live record of a device's command stream.

    Parameters
    ----------
    device:
        An :class:`~repro.core.device.AmbitDevice`.  The log attaches a
        tracer and opens a capture; call :meth:`detach` (or let the
        pytest fixture do it) when done.
    """

    def __init__(self, device):
        self.device = device
        self.ring = RingBufferSink()
        self._counter_sink = CounterSink()
        self.tracer = device.attach_tracer(
            Tracer(
                sinks=[self.ring, self._counter_sink],
                timing=device.timing,
                row_bytes=device.row_bytes,
            )
        )
        self._issued = device.chip.trace.open_capture()

    # ------------------------------------------------------------------
    @property
    def events(self) -> List[TraceEvent]:
        """All structured events since the last clear."""
        return self.ring.events

    def commands(self) -> List[TraceEvent]:
        """Bus-command events since the last clear."""
        return self.ring.commands()

    def lines(self) -> List[str]:
        """Commands since the last clear, one trace-format line each."""
        text = dump_trace_with_data(self._issued)
        return text.splitlines() if text else []

    def text(self) -> str:
        """Commands since the last clear as one trace-format string."""
        return "\n".join(self.lines())

    def counters(self) -> CounterSet:
        """Counter deltas since the last clear (an independent copy)."""
        return self._counter_sink.counters.copy()

    def clear(self) -> None:
        """Forget everything recorded so far."""
        self.ring.clear()
        self._counter_sink.reset()
        self._issued.clear()

    def detach(self) -> None:
        """Detach the underlying tracer and close the capture."""
        if self.device.tracer is self.tracer:
            self.device.detach_tracer()
        self.device.chip.trace.close_capture(self._issued)
