"""DRAM + channel energy model (the Rambus-power-model substitute).

Section 7 / Table 3 compare the energy of bulk bitwise operations on the
DDR3 interface against Ambit, for DDR3-1333:

* **DDR3 path**: every operand row crosses the channel (reads for the
  sources, a write for the destination), so energy is dominated by
  per-byte DRAM access + I/O energy, plus an activate/precharge per row
  touched.
* **Ambit path**: nothing crosses the channel; energy is activates and
  precharges only.  "The activation energy increases by 22% for each
  additional wordline raised."

Calibration
-----------
Three constants reproduce Table 3's regime (derivation in
EXPERIMENTS.md):

* ``act_nj = 2.8`` and ``pre_nj = 0.8`` make one AAP cost 6.4 nJ per
  8 KB row.  Table 3's Ambit column is AAP-count arithmetic: not = 2
  AAPs -> 12.8 nJ/row = 1.6 nJ/KB; and/or = 4 -> 3.2 (+ TRA wordline
  surcharge); nand/nor = 5 -> 4.0; xor/xnor = 5 AAP + 2 AP -> 5.5.
* ``channel_nj_per_kb = 46`` makes the DDR3 column work out: not moves
  2 rows -> ~93 nJ/KB; two-operand ops move 3 rows -> ~138 nJ/KB.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple

from repro.core.microprograms import BulkOp
from repro.dram.commands import CommandKind, IssuedCommand, Opcode
from repro.errors import ConfigError

#: Row size the activation energies are referenced to (the paper's 8 KB).
REFERENCE_ROW_BYTES = 8192


@dataclass(frozen=True)
class EnergyParameters:
    """Energy constants (nanojoules), referenced to an 8 KB row."""

    #: Energy of one single-wordline ACTIVATE (includes restore).
    act_nj: float = 2.8
    #: Energy of one PRECHARGE.
    pre_nj: float = 0.8
    #: Activation surcharge per additional wordline raised (+22 %).
    extra_wordline_factor: float = 0.22
    #: DRAM access + channel I/O energy per kilobyte moved over the
    #: DDR interface.
    channel_nj_per_kb: float = 46.0

    def __post_init__(self) -> None:
        if min(self.act_nj, self.pre_nj, self.channel_nj_per_kb) <= 0:
            raise ConfigError("energy constants must be positive")
        if self.extra_wordline_factor < 0:
            raise ConfigError("extra_wordline_factor must be non-negative")

    # ------------------------------------------------------------------
    def activate_nj(self, wordlines: int, row_bytes: int) -> float:
        """Energy of one ACTIVATE raising ``wordlines`` wordlines."""
        scale = row_bytes / REFERENCE_ROW_BYTES
        return self.act_nj * scale * (
            1.0 + self.extra_wordline_factor * (wordlines - 1)
        )

    def precharge_nj(self, row_bytes: int) -> float:
        """Energy of one PRECHARGE, scaled to the row size."""
        return self.pre_nj * row_bytes / REFERENCE_ROW_BYTES

    def transfer_nj(self, num_bytes: int) -> float:
        """Energy of moving bytes over the DDR channel."""
        return self.channel_nj_per_kb * num_bytes / 1024.0


DEFAULT_ENERGY = EnergyParameters()


def command_energy_pj(
    opcode: Opcode,
    wordlines: int,
    row_bytes: int,
    params: EnergyParameters = DEFAULT_ENERGY,
) -> float:
    """Energy of one command, in pJ.

    READ/WRITE commands move one 64-bit word over the channel each;
    REFRESH is not charged.
    """
    if opcode is Opcode.ACTIVATE:
        nj = params.activate_nj(wordlines, row_bytes)
    elif opcode is Opcode.PRECHARGE:
        nj = params.precharge_nj(row_bytes)
    elif opcode in (Opcode.READ, Opcode.WRITE):
        nj = params.transfer_nj(8)
    else:
        nj = 0.0
    return nj * 1000.0


def tally_energy_pj(
    counts: Iterable[Tuple[CommandKind, int]],
    row_bytes: int,
    params: EnergyParameters = DEFAULT_ENERGY,
) -> float:
    """Energy of a command tally, in pJ: ``sum(n x command_energy_pj)``.

    ``counts`` holds ``((opcode, wordlines), n)`` pairs, e.g. the items
    of :meth:`repro.dram.commands.CommandTrace.command_counts`.  The
    profiler and the Table 3 experiment both price commands here.
    """
    return sum(
        n * command_energy_pj(opcode, wordlines, row_bytes, params)
        for (opcode, wordlines), n in counts
    )


def trace_energy_nj(
    trace: Iterable[IssuedCommand],
    row_bytes: int,
    params: EnergyParameters = DEFAULT_ENERGY,
) -> float:
    """Fold logged commands into total energy, one entry at a time.

    The per-entry reference for :func:`tally_energy_pj`.  READ/WRITE
    commands move one 64-bit word over the channel each.
    """
    total = 0.0
    for entry in trace:
        opcode = entry.command.opcode
        if opcode is Opcode.ACTIVATE:
            total += params.activate_nj(entry.wordlines_raised, row_bytes)
        elif opcode is Opcode.PRECHARGE:
            total += params.precharge_nj(row_bytes)
        elif opcode in (Opcode.READ, Opcode.WRITE):
            total += params.transfer_nj(8)
    return total


#: Rows moved over the channel by the DDR3 (processor-side) realisation
#: of each op: read every source, write the destination.
_DDR_ROWS_MOVED = {
    BulkOp.NOT: 2,
    BulkOp.COPY: 2,
    BulkOp.AND: 3,
    BulkOp.OR: 3,
    BulkOp.NAND: 3,
    BulkOp.NOR: 3,
    BulkOp.XOR: 3,
    BulkOp.XNOR: 3,
}


def ddr_op_energy_nj(
    op: BulkOp,
    row_bytes: int = REFERENCE_ROW_BYTES,
    params: EnergyParameters = DEFAULT_ENERGY,
) -> float:
    """Energy of one row-sized op executed over the DDR3 interface.

    The processor streams the source rows in and the result out; each
    row touched costs an activate/precharge pair plus its transfer.
    """
    rows = _DDR_ROWS_MOVED[op]
    return rows * (
        params.transfer_nj(row_bytes)
        + params.activate_nj(1, row_bytes)
        + params.precharge_nj(row_bytes)
    )


def ddr_op_energy_nj_per_kb(
    op: BulkOp, params: EnergyParameters = DEFAULT_ENERGY
) -> float:
    """Table 3's unit: nJ per KB of operation (row-size independent)."""
    return ddr_op_energy_nj(op, REFERENCE_ROW_BYTES, params) / (
        REFERENCE_ROW_BYTES / 1024
    )
