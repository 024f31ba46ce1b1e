"""The tracer: one choke point, many sinks.

A :class:`Tracer` hangs off :class:`~repro.dram.chip.DramChip` (see
:meth:`repro.core.device.AmbitDevice.attach_tracer`).  The chip reports
every executed bus command; the Ambit controller reports each AAP/AP
primitive with its accounted latency and brackets whole bulk operations
with :meth:`Tracer.begin_op` / :meth:`Tracer.end_op`, so op-level events
carry exact per-instance aggregates (AAPs, APs, commands, energy).  For
fused rows, which skip the per-row walk, the batch engine makes the
same calls from command schedules bound from their plan templates
(:meth:`repro.engine.batch.BatchEngine.account_group`).

Per-command durations and energies are *nominal*: durations come from
the JEDEC identities of the attached
:class:`~repro.dram.timing.TimingParameters` (an AAP's two ACTIVATEs
overlap in accounted time, so command lanes are illustrative, not a
cycle-accurate pipeline); energies come from the Table 3 energy model,
including the +22 %/extra-wordline activation surcharge.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional

from repro.dram.commands import IssuedCommand, Opcode
from repro.energy.power_model import (
    DEFAULT_ENERGY,
    REFERENCE_ROW_BYTES,
    EnergyParameters,
    command_energy_pj,
)
from repro.dram.timing import TimingParameters
from repro.obs.events import (
    KIND_COMMAND,
    KIND_OP,
    KIND_PRIMITIVE,
    KIND_SPAN,
    TraceEvent,
)
from repro.obs.sinks import TraceSink

#: Bus-command mnemonics (same vocabulary as :mod:`repro.dram.trace_io`).
MNEMONICS = {
    Opcode.ACTIVATE: "ACT",
    Opcode.PRECHARGE: "PRE",
    Opcode.READ: "RD",
    Opcode.WRITE: "WR",
    Opcode.REFRESH: "REF",
}


class _OpFrame:
    """Book-keeping for one in-flight bulk operation."""

    __slots__ = ("name", "bank", "subarray", "start_ns", "energy_pj",
                 "aaps", "aps", "commands", "span")

    def __init__(
        self,
        name: str,
        bank: int,
        subarray: int,
        start_ns: float,
        span: Optional[tuple] = None,
    ):
        self.name = name
        self.bank = bank
        self.subarray = subarray
        self.start_ns = start_ns
        self.energy_pj = 0.0
        self.aaps = 0
        self.aps = 0
        self.commands = 0
        #: ``(trace_ids, span_id)`` captured from the tracer's ambient
        #: request-span context at ``begin_op`` time (None = untraced).
        self.span = span


class Tracer:
    """Fan the command stream out to pluggable sinks.

    Parameters
    ----------
    sinks:
        Initial sinks; more can be added with :meth:`add_sink`.
    timing:
        Speed grade for nominal per-command durations (``None`` leaves
        command durations at 0; primitive/op spans always carry the
        controller's accounted latency).
    energy:
        Energy constants for per-command energy attribution.
    row_bytes:
        Row size the activation energies scale with.
    """

    def __init__(
        self,
        sinks: Iterable[TraceSink] = (),
        timing: Optional[TimingParameters] = None,
        energy: EnergyParameters = DEFAULT_ENERGY,
        row_bytes: int = REFERENCE_ROW_BYTES,
    ):
        self.sinks: List[TraceSink] = list(sinks)
        self.timing = timing
        self.energy = energy
        self.row_bytes = row_bytes
        self._seq = 0
        self._op_stack: List[_OpFrame] = []
        #: Ambient request-span context: ``(trace_ids_csv, span_id)``.
        #: The serving layer sets this around each wave on the device
        #: thread; ``begin_op`` snapshots it into the op frame so every
        #: emitted op event carries the request trace(s) that caused it
        #: -- the join key between request spans and the command stream.
        self.span_context: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Sink management
    # ------------------------------------------------------------------
    def add_sink(self, sink: TraceSink) -> TraceSink:
        """Attach another sink; returns it for convenience."""
        self.sinks.append(sink)
        return sink

    def close(self) -> None:
        """Close every sink (flushes file-backed sinks)."""
        for sink in self.sinks:
            sink.close()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def _emit(self, event: TraceEvent) -> None:
        for sink in self.sinks:
            sink.emit(event)

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def record_command(self, issued: IssuedCommand, clock_ns: float) -> None:
        """Record one executed bus command (called by the chip, and by
        the batch engine for rows it did not walk command by command)."""
        command = issued.command
        energy_pj = command_energy_pj(
            command.opcode, issued.wordlines_raised, self.row_bytes,
            self.energy,
        )
        attrs: dict = {}
        if issued.onto_open_row:
            attrs["onto_open_row"] = True
        if issued.write_value is not None:
            attrs["write_value"] = issued.write_value
        self._emit(
            TraceEvent(
                kind=KIND_COMMAND,
                name=MNEMONICS[command.opcode],
                ts_ns=clock_ns,
                dur_ns=self._command_dur_ns(command.opcode),
                seq=self._next_seq(),
                bank=command.bank,
                subarray=command.subarray,
                row=command.row,
                column=command.column,
                wordlines=issued.wordlines_raised,
                energy_pj=energy_pj,
                attrs=attrs,
            )
        )
        if self._op_stack:
            frame = self._op_stack[-1]
            frame.energy_pj += energy_pj
            frame.commands += 1

    def record_primitive(
        self,
        name: str,
        bank: int,
        subarray: int,
        start_ns: float,
        dur_ns: float,
        **attrs: Any,
    ) -> None:
        """Record one accounted primitive (AAP/AP/PSM_COPY span)."""
        self._emit(
            TraceEvent(
                kind=KIND_PRIMITIVE,
                name=name,
                ts_ns=start_ns,
                dur_ns=dur_ns,
                seq=self._next_seq(),
                bank=bank,
                subarray=subarray,
                attrs=attrs,
            )
        )
        if self._op_stack:
            frame = self._op_stack[-1]
            if name == "AAP":
                frame.aaps += 1
            elif name == "AP":
                frame.aps += 1

    def begin_op(self, name: str, bank: int, subarray: int, clock_ns: float) -> None:
        """Open a bulk-operation span (nestable)."""
        self._op_stack.append(
            _OpFrame(name, bank, subarray, clock_ns, span=self.span_context)
        )

    def end_op(self, clock_ns: float) -> None:
        """Close the innermost bulk-operation span and emit it."""
        frame = self._op_stack.pop()
        attrs: dict = {
            "aaps": frame.aaps,
            "aps": frame.aps,
            "commands": frame.commands,
        }
        if frame.span is not None:
            attrs["trace"], attrs["span"] = frame.span
        self._emit(
            TraceEvent(
                kind=KIND_OP,
                name=frame.name,
                ts_ns=frame.start_ns,
                dur_ns=clock_ns - frame.start_ns,
                seq=self._next_seq(),
                bank=frame.bank,
                subarray=frame.subarray,
                energy_pj=frame.energy_pj,
                attrs=attrs,
            )
        )

    def span(
        self,
        name: str,
        start_ns: float,
        dur_ns: float,
        bank: Optional[int] = None,
        **attrs: Any,
    ) -> None:
        """Record a free-form span (scheduler jobs, memory requests)."""
        self._emit(
            TraceEvent(
                kind=KIND_SPAN,
                name=name,
                ts_ns=start_ns,
                dur_ns=dur_ns,
                seq=self._next_seq(),
                bank=bank,
                attrs=attrs,
            )
        )

    # ------------------------------------------------------------------
    # Nominal command costing
    # ------------------------------------------------------------------
    def _command_dur_ns(self, opcode: Opcode) -> float:
        t = self.timing
        if t is None:
            return 0.0
        if opcode is Opcode.ACTIVATE:
            return t.tRCD
        if opcode is Opcode.PRECHARGE:
            return t.tRP
        if opcode in (Opcode.READ, Opcode.WRITE):
            return t.tCL + t.tBL
        return t.trc  # REFRESH: one row cycle per modelled refresh
