"""Canned profiling workloads for ``repro profile``.

Each workload executes real microprograms on a real (small) device,
verifies every result bit-exactly against numpy, and returns the
:class:`~repro.obs.profiler.ProfileReport` -- so the profile's numbers
always describe a *correct* run.  The CLI wraps this with optional
Chrome-trace / JSON-lines sinks; a tracer is attached only to feed them.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.core.device import AmbitDevice
from repro.core.driver import AmbitDriver
from repro.core.microprograms import BulkOp
from repro.dram.geometry import DramGeometry, SubarrayGeometry
from repro.errors import ConfigError, SimulationError
from repro.obs.profiler import ProfileReport
from repro.obs.sinks import TraceSink
from repro.obs.tracer import Tracer

#: The seven bulk bitwise operations of the paper's evaluation.
LOGIC_OPS: Tuple[BulkOp, ...] = (
    BulkOp.AND,
    BulkOp.OR,
    BulkOp.NOT,
    BulkOp.NAND,
    BulkOp.NOR,
    BulkOp.XOR,
    BulkOp.XNOR,
)

#: Workload name -> the bulk ops it exercises.
WORKLOADS: Dict[str, Tuple[BulkOp, ...]] = {
    **{op.value: (op,) for op in LOGIC_OPS},
    "maj": (BulkOp.MAJ,),
    "copy": (BulkOp.COPY,),
    "all": LOGIC_OPS,
}

_NUMPY_REFERENCE = {
    BulkOp.AND: lambda a, b, c: a & b,
    BulkOp.OR: lambda a, b, c: a | b,
    BulkOp.NOT: lambda a, b, c: ~a,
    BulkOp.NAND: lambda a, b, c: ~(a & b),
    BulkOp.NOR: lambda a, b, c: ~(a | b),
    BulkOp.XOR: lambda a, b, c: a ^ b,
    BulkOp.XNOR: lambda a, b, c: ~(a ^ b),
    BulkOp.MAJ: lambda a, b, c: (a & b) | (a & c) | (b & c),
    BulkOp.COPY: lambda a, b, c: a.copy(),
}


def profile_geometry(row_bytes: int = 512) -> DramGeometry:
    """A small but multi-bank geometry for profiling runs."""
    return DramGeometry(
        banks=2,
        subarrays_per_bank=2,
        subarray=SubarrayGeometry(rows=64, row_bytes=row_bytes),
    )


def run_profile_workload(
    workload: str,
    repeats: int = 4,
    geometry: Optional[DramGeometry] = None,
    sinks: Iterable[TraceSink] = (),
    seed: int = 7,
) -> ProfileReport:
    """Execute and profile one canned workload.

    Parameters
    ----------
    workload:
        A key of :data:`WORKLOADS` (``and``/``or``/.../``all``).
    repeats:
        Row-sized instances of each op to execute (spread across banks
        round-robin, so bank-level parallelism shows in the trace).
    geometry:
        Device shape; defaults to :func:`profile_geometry`.
    sinks:
        Trace sinks (Chrome trace, JSON lines, ring buffer) to feed from
        a tracer attached for the run; none attaches no tracer.  Callers
        own closing file-backed sinks.
    """
    try:
        ops = WORKLOADS[workload]
    except KeyError:
        raise ConfigError(
            f"unknown profile workload {workload!r}; "
            f"available: {', '.join(sorted(WORKLOADS))}"
        ) from None
    if repeats <= 0:
        raise ConfigError(f"repeats must be positive; got {repeats}")

    device = AmbitDevice(geometry=geometry or profile_geometry())
    # Rows are placed through the subarray-aware driver, so the report
    # also reflects real allocator-pool pressure (high-water mark).
    driver = AmbitDriver(device)
    sinks = list(sinks)
    if sinks:
        device.attach_tracer(Tracer(
            sinks=sinks, timing=device.timing, row_bytes=device.row_bytes
        ))
    geo = device.geometry
    words = geo.subarray.words_per_row
    row_bits = device.row_bits
    rng = np.random.default_rng(seed)
    with device.profile() as report:
        for op in ops:
            for i in range(repeats):
                # Four co-located row-sized operands per instance; the
                # driver round-robins instances across (bank, subarray)
                # stripes, so bank-level parallelism shows in the trace.
                handles = [driver.allocate(row_bits)]
                for _ in range(3):
                    handles.append(
                        driver.allocate(row_bits, like=handles[0])
                    )
                ra, rb, rc, rd = (h.rows[0] for h in handles)
                a = rng.integers(0, 2**63, size=words, dtype=np.uint64)
                b = rng.integers(0, 2**63, size=words, dtype=np.uint64)
                c = rng.integers(0, 2**63, size=words, dtype=np.uint64)
                device.write_row(ra, a)
                device.write_row(rb, b)
                device.write_row(rc, c)
                device.bbop_row(
                    op,
                    rd,
                    ra,
                    rb if op.arity >= 2 else None,
                    rc if op.arity == 3 else None,
                )
                expected = _NUMPY_REFERENCE[op](a, b, c)
                if not np.array_equal(device.read_row(rd), expected):
                    raise SimulationError(
                        f"profile workload {op.value} produced a wrong "
                        f"result (instance {i})"
                    )
                for handle in handles:
                    driver.free(handle)
    if sinks:
        device.detach_tracer()
    report.device = device
    return report
