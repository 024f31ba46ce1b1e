"""The ``bbop`` ISA extension (Sections 5.4.1 and 5.4.3).

Applications communicate bulk bitwise operations with instructions of
the form::

    bbop dst, src1, [src2], size

where the addresses are byte addresses in the physical address space and
``size`` is the operation length in bytes.  The microarchitecture checks
each instance: if the operands are row-aligned and the size is a
multiple of the DRAM row size, the operation is sent to the (Ambit)
memory controller; otherwise the CPU executes it itself.

The model exposes that exact contract: :func:`execute_bbop` returns
whether the instruction was offloaded, and performs the operation either
through the Ambit controller or through the CPU-fallback path (a plain
numpy computation over the memory image), so results are identical
either way -- only cost differs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.device import AmbitDevice
from repro.core.microprograms import BulkOp, apply_bulk_op
from repro.errors import AlignmentError


@dataclass(frozen=True)
class BbopInstruction:
    """One ``bbop`` instruction instance.

    Addresses index the device's flat data space: global data row ``r``
    occupies bytes ``[r*row_bytes, (r+1)*row_bytes)``.
    """

    op: BulkOp
    dst: int
    src1: int
    src2: Optional[int] = None
    size: int = 0

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise AlignmentError(f"bbop size must be positive; got {self.size}")
        if self.op.arity > 2 or (self.src2 is None) != (self.op.arity == 1):
            raise AlignmentError(
                f"bbop {self.op.value} takes {self.op.arity} source operand(s)"
            )


@dataclass(frozen=True)
class BbopOutcome:
    """What the microarchitecture did with one instruction."""

    offloaded: bool
    rows_processed: int
    #: True when some operand pair needed cross-subarray staging.
    staged: bool = False


def is_offloadable(instr: BbopInstruction, row_bytes: int) -> bool:
    """The Section 5.4.3 check: row alignment and row-multiple size."""
    addresses = [instr.dst, instr.src1] + (
        [] if instr.src2 is None else [instr.src2]
    )
    if any(a % row_bytes != 0 for a in addresses):
        return False
    return instr.size % row_bytes == 0


def execute_bbop(device: AmbitDevice, instr: BbopInstruction) -> BbopOutcome:
    """Execute one bbop instruction the way the hardware would.

    Offloadable instructions run row-by-row on the Ambit controller
    (using the flat row mapping of
    :meth:`repro.dram.chip.DramChip.locate_data_row`); the rest take the
    CPU-fallback path.
    """
    row_bytes = device.row_bytes
    if not is_offloadable(instr, row_bytes):
        _cpu_fallback(device, instr)
        return BbopOutcome(offloaded=False, rows_processed=0)

    chip = device.chip
    n_rows = instr.size // row_bytes
    staged = False
    for i in range(n_rows):
        dst = chip.locate_data_row(instr.dst // row_bytes + i)
        src1 = chip.locate_data_row(instr.src1 // row_bytes + i)
        src2 = (
            None
            if instr.src2 is None
            else chip.locate_data_row(instr.src2 // row_bytes + i)
        )
        # The flat physical map does not guarantee co-location; the
        # hardware stages strays through scratch-row PSM copies.  The
        # driver-based BitVector API avoids this; the raw ISA pays it.
        from repro.core.driver import stage_row  # local import: no cycle at load

        if (src1.bank, src1.subarray) != (dst.bank, dst.subarray) or (
            src2 is not None
            and (src2.bank, src2.subarray) != (dst.bank, dst.subarray)
        ):
            staged = True
            src1 = stage_row(device, src1, dst, scratch_index=0)
            if src2 is not None:
                src2 = stage_row(device, src2, dst, scratch_index=1)
        device.bbop_row(instr.op, dst, src1, src2)
    return BbopOutcome(offloaded=True, rows_processed=n_rows, staged=staged)


# ----------------------------------------------------------------------
# CPU fallback path
# ----------------------------------------------------------------------

def read_bytes(device: AmbitDevice, address: int, size: int) -> np.ndarray:
    """Read ``size`` bytes from the flat data space (functional access)."""
    row_bytes = device.row_bytes
    out = np.empty(size, dtype=np.uint8)
    done = 0
    while done < size:
        row, offset = divmod(address + done, row_bytes)
        take = min(size - done, row_bytes - offset)
        row_img = device.chip.peek_global(row).view(np.uint8)
        out[done : done + take] = row_img[offset : offset + take]
        done += take
    return out


def write_bytes(device: AmbitDevice, address: int, data: np.ndarray) -> None:
    """Write bytes into the flat data space (functional access)."""
    row_bytes = device.row_bytes
    data = np.asarray(data, dtype=np.uint8)
    done = 0
    while done < data.size:
        row, offset = divmod(address + done, row_bytes)
        take = min(data.size - done, row_bytes - offset)
        row_img = device.chip.peek_global(row).view(np.uint8).copy()
        row_img[offset : offset + take] = data[done : done + take]
        device.chip.poke_global(row, row_img.view(np.uint64))
        done += take


def _cpu_fallback(device: AmbitDevice, instr: BbopInstruction) -> None:
    a = read_bytes(device, instr.src1, instr.size)
    b = (
        read_bytes(device, instr.src2, instr.size)
        if instr.src2 is not None
        else None
    )
    result = apply_bulk_op(instr.op, a, b)
    write_bytes(device, instr.dst, result)
