"""Per-operation counters of a stretch of command stream.

:class:`CounterSet` is the quantitative summary of a stretch of command
stream: how many of each bus command, how many AAP/AP primitives, how
many triple-row activations, how much accounted busy time and energy.
It supports delta arithmetic (``after - before``) so profiling regions
compose, and is filled either streamingly from trace events (as a
:class:`~repro.obs.sinks.CounterSink`) or, with per-op
:class:`OpStats`, by :func:`fold_record` from the delta of the chip
trace's accounting record (:class:`~repro.dram.commands.TraceRecord`).
The two agree exactly; ``tests/parallel/test_remote_trace.py`` checks
it on every execution tier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Tuple

from repro.dram.commands import Opcode, TraceRecord
from repro.energy.power_model import (
    DEFAULT_ENERGY,
    EnergyParameters,
    tally_energy_pj,
)
from repro.obs.events import (
    KIND_COMMAND,
    KIND_OP,
    KIND_PRIMITIVE,
    TraceEvent,
)

#: Bulk-op span names that are RowClone copies rather than logic ops.
_FPM_COPY_OPS = ("copy", "init0", "init1")
_PSM_COPY_OP = "psm_copy"


@dataclass
class OpStats:
    """Aggregate cost of all executions of one bulk operation."""

    count: int = 0
    aaps: int = 0
    aps: int = 0
    commands: int = 0
    busy_ns: float = 0.0
    energy_pj: float = 0.0

    def observe(self, event: TraceEvent) -> None:
        """Fold one ``kind="op"`` event into the aggregate."""
        self.count += 1
        self.aaps += int(event.attrs.get("aaps", 0))
        self.aps += int(event.attrs.get("aps", 0))
        self.commands += int(event.attrs.get("commands", 0))
        self.busy_ns += event.dur_ns
        self.energy_pj += event.energy_pj


@dataclass
class CounterSet:
    """Counters over a stretch of the command stream.

    ``busy_ns`` is the *serial* accounted time (every primitive end to
    end, the same convention as
    :attr:`repro.core.controller.ControllerStats.busy_ns`); ``energy_pj``
    folds the per-command energy model.
    """

    activates: int = 0
    precharges: int = 0
    reads: int = 0
    writes: int = 0
    refreshes: int = 0
    #: ACTIVATEs that raised two wordlines (DCC rows B4/B5).
    double_row_activations: int = 0
    #: Triple-row activations -- the in-DRAM majority computations.
    tras: int = 0
    aaps: int = 0
    aps: int = 0
    #: Intra-subarray RowClone copies driven as whole bulk ops
    #: (``copy``/``init0``/``init1`` programs; each is one AAP).
    rowclone_fpm: int = 0
    #: Inter-bank RowClone-PSM row transfers.
    rowclone_psm: int = 0
    busy_ns: float = 0.0
    energy_pj: float = 0.0
    #: Microprogram plan-cache hits/misses inside the profiled region
    #: (filled from the controller's :class:`repro.engine.plan.PlanCache`
    #: by the profiler; trace events do not carry them).
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    #: Completed bulk operations by name (``and``, ``xor``, ...).
    ops: Dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def observe(self, event: TraceEvent) -> None:
        """Fold one trace event into the counters."""
        if event.kind == KIND_COMMAND:
            self._observe_command(event)
        elif event.kind == KIND_PRIMITIVE:
            if event.name == "AAP":
                self.aaps += 1
            elif event.name == "AP":
                self.aps += 1
            elif event.name == "PSM_COPY":
                self.rowclone_psm += 1
            self.busy_ns += event.dur_ns
        elif event.kind == KIND_OP:
            self.ops[event.name] = self.ops.get(event.name, 0) + 1
            if event.name in _FPM_COPY_OPS:
                self.rowclone_fpm += 1

    def _observe_command(self, event: TraceEvent) -> None:
        if event.name == "ACT":
            self.activates += 1
            if event.wordlines == 2:
                self.double_row_activations += 1
            elif event.wordlines >= 3:
                self.tras += 1
        elif event.name == "PRE":
            self.precharges += 1
        elif event.name == "RD":
            self.reads += 1
        elif event.name == "WR":
            self.writes += 1
        elif event.name == "REF":
            self.refreshes += 1
        self.energy_pj += event.energy_pj

    def observe_all(self, events: Iterable[TraceEvent]) -> "CounterSet":
        """Fold many events; returns ``self`` for chaining."""
        for event in events:
            self.observe(event)
        return self

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    @property
    def commands(self) -> int:
        """Total bus commands observed."""
        return (
            self.activates
            + self.precharges
            + self.reads
            + self.writes
            + self.refreshes
        )

    def __sub__(self, other: "CounterSet") -> "CounterSet":
        ops = dict(self.ops)
        for name, count in other.ops.items():
            ops[name] = ops.get(name, 0) - count
        result = CounterSet(ops={k: v for k, v in ops.items() if v})
        for name in _NUMERIC_FIELDS:
            setattr(result, name, getattr(self, name) - getattr(other, name))
        return result

    def __add__(self, other: "CounterSet") -> "CounterSet":
        ops = dict(self.ops)
        for name, count in other.ops.items():
            ops[name] = ops.get(name, 0) + count
        result = CounterSet(ops=ops)
        for name in _NUMERIC_FIELDS:
            setattr(result, name, getattr(self, name) + getattr(other, name))
        return result

    def copy(self) -> "CounterSet":
        """An independent snapshot of the current values."""
        return self + CounterSet()

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        """Flatten to a plain dict (for JSON dumps and assertions)."""
        record: Dict[str, Any] = {
            name: getattr(self, name) for name in _NUMERIC_FIELDS
        }
        record["ops"] = dict(self.ops)
        return record

    def format(self) -> str:
        """A compact human-readable summary block."""
        lines = [
            f"commands : {self.commands:>10}  "
            f"(ACT {self.activates}, PRE {self.precharges}, "
            f"RD {self.reads}, WR {self.writes}, REF {self.refreshes})",
            f"TRAs     : {self.tras:>10}  "
            f"(dual-wordline ACTs {self.double_row_activations})",
            f"AAP / AP : {self.aaps:>10} / {self.aps}",
            f"RowClone : {self.rowclone_fpm:>10} FPM, {self.rowclone_psm} PSM",
            f"busy     : {self.busy_ns:>10.1f} ns",
            f"energy   : {self.energy_pj:>10.1f} pJ",
        ]
        if self.plan_cache_hits or self.plan_cache_misses:
            lines.append(
                f"plans    : {self.plan_cache_hits:>10} cache hits, "
                f"{self.plan_cache_misses} misses"
            )
        if self.ops:
            ops = ", ".join(f"{k}={v}" for k, v in sorted(self.ops.items()))
            lines.append(f"bulk ops : {ops}")
        return "\n".join(lines)


def fold_record(
    record: TraceRecord,
    row_bytes: int,
    energy: EnergyParameters = DEFAULT_ENERGY,
) -> Tuple[CounterSet, Dict[str, OpStats]]:
    """Counters and per-op statistics of an accounting-record delta.

    Each op execution in ``record`` is a count against its
    :class:`~repro.engine.plan.OpTotals`, so an op's statistics are
    ``count x totals``; commands are priced by the Table 3 energy model
    at ``row_bytes`` (:func:`~repro.energy.power_model.tally_energy_pj`).
    Plan-cache fields are left at zero (the record does not hold them).
    """
    counters = CounterSet()
    commands = record.commands()
    for (opcode, wordlines), n in commands.items():
        if opcode is Opcode.ACTIVATE:
            counters.activates += n
            if wordlines == 2:
                counters.double_row_activations += n
            elif wordlines >= 3:
                counters.tras += n
        elif opcode is Opcode.PRECHARGE:
            counters.precharges += n
        elif opcode is Opcode.READ:
            counters.reads += n
        elif opcode is Opcode.WRITE:
            counters.writes += n
        elif opcode is Opcode.REFRESH:
            counters.refreshes += n
    counters.energy_pj = tally_energy_pj(commands.items(), row_bytes, energy)
    per_op: Dict[str, OpStats] = {}
    for totals, n in record.runs():
        name = totals.name
        stats = per_op.get(name)
        if stats is None:
            stats = per_op[name] = OpStats()
        stats.count += n
        stats.aaps += n * totals.aaps
        stats.aps += n * totals.aps
        stats.commands += n * totals.num_commands
        stats.busy_ns += n * totals.ns
        stats.energy_pj += n * tally_energy_pj(
            totals.commands, row_bytes, energy
        )
        counters.aaps += n * totals.aaps
        counters.aps += n * totals.aps
        counters.busy_ns += n * totals.ns
        counters.ops[name] = counters.ops.get(name, 0) + n
        if name in _FPM_COPY_OPS:
            counters.rowclone_fpm += n
        elif name == _PSM_COPY_OP:
            counters.rowclone_psm += n
    return counters, per_op


_NUMERIC_FIELDS = (
    "activates",
    "precharges",
    "reads",
    "writes",
    "refreshes",
    "double_row_activations",
    "tras",
    "aaps",
    "aps",
    "rowclone_fpm",
    "rowclone_psm",
    "busy_ns",
    "energy_pj",
    "plan_cache_hits",
    "plan_cache_misses",
)
