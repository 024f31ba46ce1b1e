"""Full-system cost simulation for the application studies (Section 8).

The Gem5 substitute.  Applications execute *functionally* (real numpy
bit manipulation, so every accelerated result is checked against the
baseline's) against an :class:`ExecutionContext` that charges time:

* :class:`CpuContext` -- the Table 4 baseline: bulk bitwise operations
  stream operands through the core (SIMD), bit-counts run at the scalar
  popcount rate.
* :class:`AmbitContext` -- bulk bitwise operations run in DRAM via the
  Ambit microprogram timing with bank-level parallelism, preceded by
  the Section 5.4.4 coherence actions; bit-counts still run on the CPU.

Both contexts compute identical results; only the charged time differs,
which is exactly the paper's experimental design ("our simulations take
into account the cost of maintaining coherence, and the overhead of
RowClone to perform copy operations" -- the RowClone copies are inside
the microprogram latency here).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.core.coherence import CoherenceCost, CoherenceLog, DirtyBlockIndex
from repro.core.microprograms import BulkOp, apply_bulk_op
from repro.dram.timing import TimingParameters, ddr4_2400
from repro.errors import SimulationError
from repro.perf.systems import AmbitSystem, TRAFFIC_PER_OUTPUT_BYTE
from repro.sim.cpu import CpuModel, CpuModelConfig


@dataclass(frozen=True)
class AmbitMemoryConfig:
    """Memory-side configuration of the simulated system (Table 4).

    DDR4-2400, one channel/rank, 16 banks, 8 KB rows, FR-FCFS.
    """

    banks: int = 16
    row_bytes: int = 8192
    timing: TimingParameters = field(default_factory=ddr4_2400)
    #: Per-bbop fixed overhead: instruction issue, controller setup,
    #: and tracking (Section 5.5.2).
    bbop_issue_ns: float = 20.0

    @property
    def row_bits(self) -> int:
        return self.row_bytes * 8


class ExecutionContext:
    """Functional execution plus time accounting.

    Subclasses implement the costing; the functional semantics are
    shared so baseline and accelerated runs produce identical data.
    """

    def __init__(self) -> None:
        self.elapsed_ns: float = 0.0
        self.breakdown: Dict[str, float] = defaultdict(float)

    # -- functional + costed operations --------------------------------
    def bulk_op(
        self,
        op: BulkOp,
        a: np.ndarray,
        b: Optional[np.ndarray] = None,
        label: str = "bitwise",
    ) -> np.ndarray:
        """Compute ``op`` functionally and charge its cost."""
        if op.arity > 2 or (b is None) != (op.arity == 1):
            raise SimulationError(f"{op.value} takes {op.arity} operand(s)")
        if b is not None and a.shape != b.shape:
            raise SimulationError("bulk_op operands must have equal shape")
        result = apply_bulk_op(op, a, b)
        self._charge(self._bulk_op_ns(op, a.nbytes), label)
        return result

    def bulk_maj(
        self,
        a: np.ndarray,
        b: np.ndarray,
        c: np.ndarray,
        label: str = "bitwise",
    ) -> np.ndarray:
        """3-operand majority -- the raw TRA (see ``BulkOp.MAJ``).

        Costs like AND on Ambit (4 AAPs); on the CPU it streams three
        sources plus the destination.
        """
        if not (a.shape == b.shape == c.shape):
            raise SimulationError("bulk_maj operands must have equal shape")
        result = apply_bulk_op(BulkOp.MAJ, a, b, c)
        self._charge(self._bulk_maj_ns(a.nbytes), label)
        return result

    def _bulk_maj_ns(self, nbytes: int) -> float:
        raise NotImplementedError

    def popcount(self, v: np.ndarray, label: str = "bitcount") -> int:
        """Count set bits (CPU-side) and charge the cost."""
        count = int(
            np.unpackbits(np.ascontiguousarray(v).view(np.uint8)).sum()
        )
        self._charge(self._popcount_ns(v.nbytes), label)
        return count

    def charge_stream(
        self, traffic_bytes: float, working_set_bytes: int, label: str = "stream"
    ) -> None:
        """Charge a custom streaming kernel (apps with fused loops)."""
        self._charge(self._stream_ns(traffic_bytes, working_set_bytes), label)

    # -- costing hooks --------------------------------------------------
    def _bulk_op_ns(self, op: BulkOp, nbytes: int) -> float:
        raise NotImplementedError

    def _popcount_ns(self, nbytes: int) -> float:
        raise NotImplementedError

    def _stream_ns(self, traffic_bytes: float, working_set_bytes: int) -> float:
        raise NotImplementedError

    def _charge(self, ns: float, label: str) -> None:
        self.elapsed_ns += ns
        self.breakdown[label] += ns


class CpuContext(ExecutionContext):
    """The SIMD-optimised CPU baseline of Section 8.

    A materialised bulk bitwise operation reads every source vector and
    writes the destination (TRAFFIC_PER_OUTPUT_BYTE bytes of traffic per
    output byte), at the bandwidth of whichever level holds the working
    set.
    """

    def __init__(self, cpu: Optional[CpuModel] = None):
        super().__init__()
        self.cpu = cpu if cpu is not None else CpuModel(CpuModelConfig())

    def _bulk_op_ns(self, op: BulkOp, nbytes: int) -> float:
        traffic = TRAFFIC_PER_OUTPUT_BYTE[op] * nbytes
        return self.cpu.stream_ns(traffic, traffic)

    def _bulk_maj_ns(self, nbytes: int) -> float:
        traffic = 4 * nbytes  # three source streams plus the result
        return self.cpu.stream_ns(traffic, traffic)

    def _popcount_ns(self, nbytes: int) -> float:
        return self.cpu.popcount_ns(nbytes)

    def _stream_ns(self, traffic_bytes: float, working_set_bytes: int) -> float:
        return self.cpu.stream_ns(traffic_bytes, working_set_bytes)


class AmbitContext(ExecutionContext):
    """The Ambit-accelerated system.

    Bulk operations execute in DRAM: per row-pair, the microprogram
    latency; rows spread across banks.  Before each operation the
    controller performs the coherence actions of Section 5.4.4 against
    the tracked dirty-block index.  Bit-counts (and any custom streamed
    kernel) still run on the CPU.
    """

    def __init__(
        self,
        cpu: Optional[CpuModel] = None,
        memory: Optional[AmbitMemoryConfig] = None,
        coherence: Optional[CoherenceCost] = None,
    ):
        super().__init__()
        self.cpu = cpu if cpu is not None else CpuModel(CpuModelConfig())
        self.memory = memory if memory is not None else AmbitMemoryConfig()
        self.coherence = coherence if coherence is not None else CoherenceCost(
            writeback_bw_gbps=self.memory.timing.io_gbps
        )
        self.dbi = DirtyBlockIndex(self.memory.row_bytes)
        self.coherence_log = CoherenceLog()
        self._ambit_model = AmbitSystem(
            "sim",
            timing=self.memory.timing,
            banks=self.memory.banks,
            row_bytes=self.memory.row_bytes,
        )
        #: Monotone allocator for the flat addresses coherence tracks.
        self._next_row = 0
        #: Rows dirtied by the CPU since the last bulk operation.
        self._pending_dirty_rows: list = []

    # ------------------------------------------------------------------
    def mark_cpu_written(self, nbytes: int) -> None:
        """Record that the CPU dirtied ``nbytes`` of some Ambit operand.

        Workloads call this for data the CPU produced right before
        handing it to Ambit; the next bulk operation pays the writeback.
        """
        lines = -(-nbytes // self.coherence.line_bytes)
        rows = -(-nbytes // self.memory.row_bytes)
        row = self._take_rows(rows)
        for i in range(lines):
            self.dbi.mark_dirty(
                row * self.memory.row_bytes + i * self.coherence.line_bytes
            )
        self._pending_dirty_rows.extend(range(row, row + rows))

    def _take_rows(self, n: int) -> int:
        start = self._next_row
        self._next_row += n
        return start

    def _bulk_op_ns(self, op: BulkOp, nbytes: int) -> float:
        rows = -(-(nbytes * 8) // self.memory.row_bits)
        waves = -(-rows // self.memory.banks)
        op_ns = waves * self._ambit_model.op_latency_ns(op)
        # Coherence: flush sources, invalidate destinations.  Source and
        # destination row lists are synthesised from the tracked space.
        n_src = rows * (1 if op.arity == 1 else 2)
        pending = getattr(self, "_pending_dirty_rows", [])
        dirty = sum(self.dbi.dirty_lines_in_row(r) for r in pending)
        self.dbi.flush_rows(pending)
        self._pending_dirty_rows = []
        flush_ns = self.coherence.flush_ns(dirty, n_src)
        inv_ns = self.coherence.invalidate_ns(rows)
        self.coherence_log.record(flush_ns, dirty, inv_ns)
        self._charge(flush_ns + max(0.0, inv_ns - op_ns), "coherence")
        return op_ns + self.memory.bbop_issue_ns

    def _bulk_maj_ns(self, nbytes: int) -> float:
        """MAJ costs like AND (4 AAPs) plus one extra source-row lookup."""
        rows = -(-(nbytes * 8) // self.memory.row_bits)
        return self._bulk_op_ns(BulkOp.AND, nbytes) + self.coherence.lookup_ns * rows

    def _popcount_ns(self, nbytes: int) -> float:
        return self.cpu.popcount_ns(nbytes)

    def _stream_ns(self, traffic_bytes: float, working_set_bytes: int) -> float:
        return self.cpu.stream_ns(traffic_bytes, working_set_bytes)
