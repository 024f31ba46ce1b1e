"""Batch-engine speedup benchmark: wall-clock rows/s, slow vs batched.

The per-row path walks ``compile -> primitives -> commands -> subarray``
in pure Python for every row; the batch engine compiles each op shape
into a plan template once, fuses the functional work of a (bank,
subarray) group into one numpy operation, and charges the group's rows
to the trace's counts from the template.  :func:`run_engine_bench` measures real wall-clock time for
both paths on the Figure-9-style workload across bank counts and
returns the ``BENCH_engine.json`` payload:

* ``slow_rows_per_s`` / ``batched_rows_per_s`` -- best-of-``repeats``
  wall-clock row throughput of each path,
* ``speedup`` -- their ratio,
* ``parallelism`` -- the engine's serialized-vs-interleaved makespan
  ratio (the modelled bank-level overlap, distinct from wall-clock).

Both paths are pinned bit-exact and accounting-exact against each other
inside the run, so a speedup can never come from skipped work.  The
benchmark test under ``benchmarks/`` asserts thresholds and writes the
payload; ``repro bench --check`` re-runs this against the committed
baseline (see :mod:`repro.obs.regress`).
"""

from __future__ import annotations

import math
import time
from typing import Any, Callable, Dict, Tuple

import numpy as np

from repro.core.device import AmbitDevice
from repro.core.microprograms import BulkOp
from repro.dram.geometry import DramGeometry, SubarrayGeometry
from repro.errors import ConfigError
from repro.perf.throughput import throughput_rows

DEFAULT_BANK_COUNTS: Tuple[int, ...] = (1, 2, 4, 8)


def _geometry(banks: int, row_bytes: int) -> DramGeometry:
    return DramGeometry(
        banks=banks,
        subarrays_per_bank=2,
        subarray=SubarrayGeometry(rows=64, row_bytes=row_bytes),
    )


def _run_slow(device, op, dst, src1, src2) -> None:
    for i in range(len(dst)):
        device.bbop_row(op, dst[i], src1[i], src2[i])


def _best_of(repeats: int, fn: Callable[[], Any]) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_engine_bench(
    rows_per_bank: int = 40,
    row_bytes: int = 1024,
    repeats: int = 3,
    bank_counts: Tuple[int, ...] = DEFAULT_BANK_COUNTS,
    op: BulkOp = BulkOp.AND,
) -> Dict[str, Any]:
    """Time the per-row and batched paths; return the payload."""
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1; got {repeats}")
    results = []
    for banks in bank_counts:
        slow = AmbitDevice(geometry=_geometry(banks, row_bytes))
        fast = AmbitDevice(geometry=_geometry(banks, row_bytes))
        dst, src1, src2 = throughput_rows(slow, op, rows_per_bank)
        throughput_rows(fast, op, rows_per_bank)  # same seed, same data
        rows = len(dst)

        slow.reset_stats()
        slow_s = _best_of(
            repeats, lambda: _run_slow(slow, op, dst, src1, src2)
        )
        slow.reset_stats()
        _run_slow(slow, op, dst, src1, src2)

        fast.reset_stats()
        batched_s = _best_of(
            repeats, lambda: fast.engine.run_rows(op, dst, src1, src2)
        )
        fast.reset_stats()
        report = fast.engine.run_rows(op, dst, src1, src2)

        # The speedup must be wall-clock only: cells and accounting match.
        if report.fused_rows != rows:
            raise ConfigError(
                f"batch engine fused {report.fused_rows}/{rows} rows at "
                f"{banks} banks"
            )
        for loc in dst:
            if not np.array_equal(fast.read_row(loc), slow.read_row(loc)):
                raise ConfigError(
                    f"batched path diverged from per-row path at {loc}"
                )
        if not (
            math.isclose(fast.elapsed_ns, slow.elapsed_ns)
            and math.isclose(fast.busy_ns, slow.busy_ns)
        ):
            raise ConfigError(
                "batched path's accounted time diverged from per-row path"
            )

        results.append(
            {
                "banks": banks,
                "rows": rows,
                "slow_rows_per_s": rows / slow_s,
                "batched_rows_per_s": rows / batched_s,
                "speedup": slow_s / batched_s,
                "parallelism": report.parallelism.parallelism,
            }
        )
    return {
        "op": op.value,
        "rows_per_bank": rows_per_bank,
        "row_bytes": row_bytes,
        "results": results,
    }


def format_engine_bench(payload: Dict[str, Any]) -> str:
    """Render the payload as the familiar throughput table."""
    lines = [
        f"{'banks':>6} {'rows':>6} {'slow rows/s':>14} "
        f"{'batched rows/s':>14} {'speedup':>9} {'parallelism':>12}"
    ]
    for r in payload["results"]:
        lines.append(
            f"{r['banks']:>6} {r['rows']:>6} {r['slow_rows_per_s']:>14.0f} "
            f"{r['batched_rows_per_s']:>14.0f} {r['speedup']:>8.1f}x "
            f"{r['parallelism']:>11.2f}x"
        )
    return "\n".join(lines)
