"""The Table 3 experiment: per-operation energy, DDR3 vs Ambit.

``table3_experiment`` executes each bulk operation on a real (small)
Ambit device, prices the chip trace's exact command counts with the
energy model, normalises to nJ/KB, and compares against the
DDR3-interface cost of the same operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.core.device import AmbitDevice
from repro.core.microprograms import BulkOp
from repro.dram.chip import RowLocation
from repro.dram.geometry import small_test_geometry
from repro.energy.power_model import (
    DEFAULT_ENERGY,
    EnergyParameters,
    ddr_op_energy_nj_per_kb,
    tally_energy_pj,
)

#: Paper's Table 3, nJ/KB (DDR3, Ambit) per operation class.
TABLE3_PAPER: Dict[str, Tuple[float, float]] = {
    "not": (93.7, 1.6),
    "and/or": (137.9, 3.2),
    "nand/nor": (137.9, 4.0),
    "xor/xnor": (137.9, 5.5),
}

#: Operation classes of Table 3 (members share a command structure).
OP_CLASSES: Dict[str, Tuple[BulkOp, ...]] = {
    "not": (BulkOp.NOT,),
    "and/or": (BulkOp.AND, BulkOp.OR),
    "nand/nor": (BulkOp.NAND, BulkOp.NOR),
    "xor/xnor": (BulkOp.XOR, BulkOp.XNOR),
}


@dataclass(frozen=True)
class EnergyRow:
    """One row of the reproduced Table 3."""

    op_class: str
    ddr3_nj_per_kb: float
    ambit_nj_per_kb: float

    @property
    def reduction(self) -> float:
        return self.ddr3_nj_per_kb / self.ambit_nj_per_kb


def ambit_op_energy_nj_per_kb(
    op: BulkOp,
    device: AmbitDevice = None,
    params: EnergyParameters = DEFAULT_ENERGY,
) -> float:
    """Measure one op's Ambit energy by executing it and pricing the
    trace's command counts."""
    if device is None:
        device = AmbitDevice(geometry=small_test_geometry())
    device.reset_stats()
    words = device.geometry.subarray.words_per_row
    rng = np.random.default_rng(0)
    loc = lambda a: RowLocation(bank=0, subarray=0, address=a)
    device.write_row(loc(0), rng.integers(0, 2**63, size=words, dtype=np.uint64))
    device.write_row(loc(1), rng.integers(0, 2**63, size=words, dtype=np.uint64))
    device.bbop_row(op, loc(2), loc(0), None if op.arity == 1 else loc(1))
    energy = tally_energy_pj(
        device.chip.trace.command_counts().items(), device.row_bytes, params
    ) / 1000.0
    return energy / (device.row_bytes / 1024)


def table3_experiment(
    params: EnergyParameters = DEFAULT_ENERGY,
) -> Dict[str, EnergyRow]:
    """Reproduce Table 3 (energy of bitwise operations, nJ/KB)."""
    device = AmbitDevice(geometry=small_test_geometry())
    rows: Dict[str, EnergyRow] = {}
    for op_class, members in OP_CLASSES.items():
        ambit = float(
            np.mean([ambit_op_energy_nj_per_kb(op, device, params) for op in members])
        )
        ddr3 = float(np.mean([ddr_op_energy_nj_per_kb(op, params) for op in members]))
        rows[op_class] = EnergyRow(op_class, ddr3, ambit)
    return rows


def format_table3(rows: Dict[str, EnergyRow]) -> str:
    """Render the reproduced table next to the paper's numbers."""
    lines = [
        "Table 3: Energy of bulk bitwise operations (nJ/KB)",
        f"{'op':>9} {'DDR3':>8} {'Ambit':>8} {'reduction':>10}"
        f" | {'paper DDR3':>10} {'paper Ambit':>11} {'paper red.':>10}",
    ]
    for op_class in OP_CLASSES:
        r = rows[op_class]
        p_ddr, p_ambit = TABLE3_PAPER[op_class]
        lines.append(
            f"{op_class:>9} {r.ddr3_nj_per_kb:>8.1f} {r.ambit_nj_per_kb:>8.2f} "
            f"{r.reduction:>9.1f}X | {p_ddr:>10.1f} {p_ambit:>11.1f} "
            f"{p_ddr / p_ambit:>9.1f}X"
        )
    return "\n".join(lines)
