"""The Figure 9 experiment: bulk bitwise throughput across five systems.

For each of the seven operations, each system's throughput on a large
(32 MB in the paper) vector is computed; the summary ratios the paper
headlines (Ambit = 44.9x Skylake, 32x GTX 745, 2.4x HMC 2.0; Ambit-3D =
9.7x HMC 2.0) are derived the same way: mean throughput across the
seven operations.

``measure_ambit_functional`` cross-checks the analytical Ambit numbers
by actually executing operations on the functional device and timing
them with the controller's clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.device import AmbitDevice
from repro.core.microprograms import BulkOp
from repro.dram.chip import RowLocation
from repro.engine.batch import BatchReport
from repro.perf.systems import (
    FIGURE9_OPS,
    AmbitSystem,
    BandwidthBoundSystem,
    ambit,
    ambit_3d,
    gtx745,
    hmc20,
    skylake,
)

#: The headline mean speedups of Section 7, for comparison printouts.
PAPER_MEAN_SPEEDUPS = {
    ("Ambit", "Skylake"): 44.9,
    ("Ambit", "GTX745"): 32.0,
    ("Ambit", "HMC 2.0"): 2.4,
    ("Ambit-3D", "HMC 2.0"): 9.7,
    ("HMC 2.0", "Skylake"): 18.5,
    ("HMC 2.0", "GTX745"): 13.1,
}


@dataclass
class Figure9Result:
    """Throughput of every system on every operation (GOps/s)."""

    systems: List[str]
    throughput: Dict[str, Dict[BulkOp, float]]

    def mean(self, system: str) -> float:
        """Mean throughput across the seven operations."""
        values = self.throughput[system]
        return float(np.mean([values[op] for op in FIGURE9_OPS]))

    def speedup(self, system: str, baseline: str) -> float:
        """Ratio of mean throughputs."""
        return self.mean(system) / self.mean(baseline)


def figure9_experiment(
    systems: Optional[Sequence[object]] = None,
) -> Figure9Result:
    """Compute the Figure 9 matrix with the default five systems."""
    if systems is None:
        systems = [skylake(), gtx745(), hmc20(), ambit(), ambit_3d()]
    throughput: Dict[str, Dict[BulkOp, float]] = {}
    names: List[str] = []
    for system in systems:
        names.append(system.name)
        throughput[system.name] = {
            op: system.throughput_gops(op) for op in FIGURE9_OPS
        }
    return Figure9Result(systems=names, throughput=throughput)


def measure_ambit_functional(
    device: AmbitDevice, op: BulkOp, rows_per_bank: int = 4
) -> float:
    """Measured Ambit throughput from the functional device (GOps/s).

    Executes ``rows_per_bank`` row-operations on every bank (subarray 0)
    and divides output bytes by the bank-parallel makespan.  This is the
    cross-check that the analytical model and the command-level model
    agree.
    """
    device.reset_stats()
    rng = np.random.default_rng(1)
    words = device.geometry.subarray.words_per_row
    for bank in range(device.geometry.banks):
        for i in range(rows_per_bank):
            loc = lambda a: RowLocation(bank=bank, subarray=0, address=a)
            device.write_row(
                loc(0), rng.integers(0, 2**63, size=words, dtype=np.uint64)
            )
            device.write_row(
                loc(1), rng.integers(0, 2**63, size=words, dtype=np.uint64)
            )
            device.bbop_row(
                op, loc(2), loc(0), None if op.arity == 1 else loc(1)
            )
    total_bytes = device.geometry.banks * rows_per_bank * device.row_bytes
    return total_bytes / device.elapsed_ns


def throughput_rows(
    device: AmbitDevice, op: BulkOp, rows_per_bank: int, seed: int = 1
) -> Tuple[List[RowLocation], List[RowLocation], Optional[List[RowLocation]]]:
    """Operand row lists for a Figure-9-style throughput run.

    ``rows_per_bank`` destination rows per bank (subarray 0), sources at
    fixed addresses 0/1, distinct destinations from address 2 upward --
    the same work :func:`measure_ambit_functional` performs, expressed
    as row batches for the engine.  Source rows are initialised with
    seeded random data.
    """
    geo = device.geometry
    if rows_per_bank > geo.subarray.data_rows - 2:
        raise ValueError(
            f"rows_per_bank={rows_per_bank} exceeds the "
            f"{geo.subarray.data_rows - 2} distinct destination rows of "
            f"a subarray"
        )
    rng = np.random.default_rng(seed)
    words = geo.subarray.words_per_row
    dst: List[RowLocation] = []
    src1: List[RowLocation] = []
    src2: List[RowLocation] = []
    for bank in range(geo.banks):
        device.write_row(
            RowLocation(bank, 0, 0),
            rng.integers(0, 2**63, size=words, dtype=np.uint64),
        )
        device.write_row(
            RowLocation(bank, 0, 1),
            rng.integers(0, 2**63, size=words, dtype=np.uint64),
        )
        for i in range(rows_per_bank):
            dst.append(RowLocation(bank, 0, 2 + i))
            src1.append(RowLocation(bank, 0, 0))
            src2.append(RowLocation(bank, 0, 1))
    return dst, src1, src2 if op.arity >= 2 else None


def measure_ambit_batched(
    device: AmbitDevice, op: BulkOp, rows_per_bank: int = 4
) -> Tuple[float, BatchReport]:
    """Measured Ambit throughput through the batch engine (GOps/s).

    Executes the same per-bank row-operations as
    :func:`measure_ambit_functional` but as one engine batch: plans are
    cached, the functional effect is fused per (bank, subarray) group,
    and groups issue round-robin across banks.  Accounted time is
    identical to the per-row path; wall-clock time is what improves.
    Returns ``(throughput_gops, batch_report)``.
    """
    device.reset_stats()
    dst, src1, src2 = throughput_rows(device, op, rows_per_bank)
    report = device.engine.run_rows(op, dst, src1, src2)
    total_bytes = device.geometry.banks * rows_per_bank * device.row_bytes
    return total_bytes / device.elapsed_ns, report


_OP_LABELS = {
    BulkOp.NOT: "not",
    BulkOp.AND: "and/or",
    BulkOp.OR: "and/or",
    BulkOp.NAND: "nand/nor",
    BulkOp.NOR: "nand/nor",
    BulkOp.XOR: "xor/xnor",
    BulkOp.XNOR: "xor/xnor",
}


def format_figure9(result: Figure9Result) -> str:
    """Render the Figure 9 matrix and the headline ratios."""
    ops = [BulkOp.NOT, BulkOp.AND, BulkOp.NAND, BulkOp.XOR]
    lines = ["Figure 9: Throughput of bulk bitwise operations (GOps/s)"]
    header = f"{'system':>10}" + "".join(
        f"{_OP_LABELS[op]:>10}" for op in ops
    ) + f"{'mean':>10}"
    lines.append(header)
    for name in result.systems:
        row = f"{name:>10}"
        for op in ops:
            row += f"{result.throughput[name][op]:>10.1f}"
        row += f"{result.mean(name):>10.1f}"
        lines.append(row)
    lines.append("")
    lines.append(f"{'speedup':>22} {'measured':>10} {'paper':>8}")
    for (system, baseline), paper in PAPER_MEAN_SPEEDUPS.items():
        if system in result.throughput and baseline in result.throughput:
            measured = result.speedup(system, baseline)
            lines.append(
                f"{system + ' vs ' + baseline:>22} {measured:>9.1f}X {paper:>7.1f}X"
            )
    return "\n".join(lines)
