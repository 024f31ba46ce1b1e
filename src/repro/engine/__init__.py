"""Batched execution engine (plan caching, fused kernels, bank interleave).

The layer between the driver and the chip that makes vector-scale work
fast: microprograms compile once per op shape into address-free
templates (:class:`~repro.engine.plan.PlanCache`), bitvector operations
apply as fused numpy kernels over row batches with exact per-row
accounting (:class:`~repro.engine.batch.BatchEngine`), and command
groups issue round-robin across banks
(:class:`~repro.engine.scheduler.BatchScheduler`).
"""

from repro.engine.batch import BatchEngine, BatchReport, apply_bulk_op
from repro.engine.plan import PlanCache, RowPlan
from repro.engine.scheduler import (
    BatchScheduler,
    CommandGroup,
    ParallelismReport,
)

__all__ = [
    "BatchEngine",
    "BatchReport",
    "BatchScheduler",
    "CommandGroup",
    "ParallelismReport",
    "PlanCache",
    "RowPlan",
    "apply_bulk_op",
]
