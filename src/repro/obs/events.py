"""The trace event record every sink consumes.

One event type covers the three altitudes of the command path:

* ``kind="cmd"`` -- a single DRAM bus command (ACT/PRE/RD/WR/REF) as
  executed by :meth:`repro.dram.chip.DramChip.execute`.
* ``kind="primitive"`` -- one AAP/AP (or RowClone-PSM transfer) with its
  accounted latency; emitted by the Ambit controller.
* ``kind="op"`` -- one whole bulk bitwise operation (Figure 8 program)
  with aggregate attributes (AAPs, APs, commands, energy).
* ``kind="span"`` -- anything else with an extent (scheduler jobs,
  foreground memory requests).

Durations are *nominal model time*: the controller's accounted latency
for primitives/ops, per-command JEDEC identities for bus commands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

#: Event kinds, in increasing altitude.
KIND_COMMAND = "cmd"
KIND_PRIMITIVE = "primitive"
KIND_OP = "op"
KIND_SPAN = "span"


@dataclass(frozen=True)
class TraceEvent:
    """One structured observation of the command path."""

    kind: str
    #: Mnemonic (``"ACT"``) for commands, primitive name (``"AAP"``) or
    #: bulk-op name (``"and"``) for spans.
    name: str
    #: Issue time on the model clock, nanoseconds.
    ts_ns: float
    #: Nominal duration, nanoseconds (0 when unknown).
    dur_ns: float = 0.0
    seq: int = 0
    bank: Optional[int] = None
    subarray: Optional[int] = None
    row: Optional[int] = None
    column: Optional[int] = None
    #: Wordlines raised by an ACTIVATE (1, 2 for DCC rows, 3 for a TRA).
    wordlines: int = 1
    energy_pj: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        """Flatten to a JSON-serialisable dict (sparse: no ``None``s)."""
        record: Dict[str, Any] = {
            "seq": self.seq,
            "kind": self.kind,
            "name": self.name,
            "ts_ns": self.ts_ns,
            "dur_ns": self.dur_ns,
        }
        for key in ("bank", "subarray", "row", "column"):
            value = getattr(self, key)
            if value is not None:
                record[key] = value
        if self.wordlines != 1:
            record["wordlines"] = self.wordlines
        if self.energy_pj:
            record["energy_pj"] = self.energy_pj
        if self.attrs:
            record["attrs"] = dict(self.attrs)
        return record
