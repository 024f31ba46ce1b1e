"""Region profiling: counters plus per-bulk-op summaries.

``with device.profile() as prof:`` brackets a stretch of work; on exit
``prof`` holds the :class:`~repro.obs.counters.CounterSet` delta of the
region and a per-operation breakdown (count, AAPs, APs, commands,
busy-ns, pJ per AND/OR/NOT/... executed inside it).  Both are folds of
the chip trace's accounting record
(:class:`~repro.dram.commands.CommandTrace`): the profiler snapshots the
record on entry and folds the delta on exit
(:func:`~repro.obs.counters.fold_record`), pricing energy at the
device's row size.  It attaches no tracer and builds no events, so
profiling leaves the profiled path as it is; a tracer attached for a
timeline keeps receiving every event, and its
:class:`~repro.obs.sinks.CounterSink` fold equals the report.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from repro.obs.counters import CounterSet, OpStats, fold_record
from repro.obs.events import KIND_OP, TraceEvent
from repro.obs.sinks import TraceSink


class _OpAggregator(TraceSink):
    """Aggregate ``kind="op"`` events into per-op statistics.

    Nothing under ``src/`` uses it: the profiler folds the accounting
    record instead.  Kept only because ``bench/layers.py`` wraps
    ``_OpAggregator.emit``; remove it when a benchmark change edits that
    file's ``LAYERS``.
    """

    def __init__(self):
        self.per_op: Dict[str, OpStats] = {}

    def emit(self, event: TraceEvent) -> None:
        if event.kind != KIND_OP:
            return
        self.per_op.setdefault(event.name, OpStats()).observe(event)


class ProfileReport:
    """The result of one profiled region."""

    def __init__(self):
        self.counters = CounterSet()
        self.per_op: Dict[str, OpStats] = {}
        #: Allocator pool pressure at region exit (``None`` when no
        #: :class:`~repro.core.driver.AmbitDriver` serves the device):
        #: ``(rows_in_use, high_water_rows, free_rows)``.
        self.allocator: Optional[Tuple[int, int, int]] = None
        #: The profiled device (set by :func:`repro.perf.profiling.
        #: run_profile_workload` so callers can read its metrics
        #: registry after the run).
        self.device: Optional[object] = None
        #: Plan-cache traffic per operation label within the region:
        #: ``op.value -> (hits, misses)``.  Compiled (synthesized) ops
        #: appear under their own ``c:<name>`` labels instead of
        #: colliding into the aggregate counters.
        self.plan_cache_by_op: Dict[str, Tuple[int, int]] = {}

    # ------------------------------------------------------------------
    def rows(self) -> List[Tuple[str, OpStats]]:
        """Per-op rows, sorted by descending busy time."""
        return sorted(
            self.per_op.items(), key=lambda item: -item[1].busy_ns
        )

    def format_table(self) -> str:
        """Render the per-op table plus the counter footer."""
        lines = [
            f"{'op':>10} {'count':>7} {'AAPs':>7} {'APs':>6} {'cmds':>7} "
            f"{'busy ns':>12} {'energy pJ':>12}"
        ]
        for name, stats in self.rows():
            lines.append(
                f"{name:>10} {stats.count:>7} {stats.aaps:>7} "
                f"{stats.aps:>6} {stats.commands:>7} "
                f"{stats.busy_ns:>12.1f} {stats.energy_pj:>12.1f}"
            )
        if not self.per_op:
            lines.append(f"{'(no bulk operations executed)':>40}")
        lines.append("")
        lines.append(self.counters.format())
        c = self.counters
        lookups = c.plan_cache_hits + c.plan_cache_misses
        if lookups:
            rate = 100.0 * c.plan_cache_hits / lookups
            lines.append(
                f"plan cache: {c.plan_cache_hits} hits / "
                f"{c.plan_cache_misses} misses ({rate:.1f}% hit rate)"
            )
            for label in sorted(self.plan_cache_by_op):
                hits, misses = self.plan_cache_by_op[label]
                lines.append(
                    f"  {label:>12}: {hits} hits / {misses} misses"
                )
        if self.allocator is not None:
            in_use, high_water, free = self.allocator
            lines.append(
                f"allocator : {in_use} row(s) in use, "
                f"high water {high_water}, {free} free"
            )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.format_table()


@contextmanager
def profile(device: "object") -> Iterator[ProfileReport]:
    """Profile a region of work on an Ambit device.

    ``device`` is an :class:`~repro.core.device.AmbitDevice` (anything
    exposing ``chip.trace``, ``controller.plan_cache`` and
    ``row_bytes``).  The counters and per-op statistics are the delta of
    the chip trace's accounting record over the region, and the
    plan-cache counts the delta of the cache's counts; both only grow,
    so a ``reset_stats`` inside the region loses none of its work.
    """
    trace = device.chip.trace
    plan_cache = device.controller.plan_cache
    start = trace.record()
    plan_start = plan_cache.counts()
    report = ProfileReport()
    try:
        yield report
    finally:
        report.counters, report.per_op = fold_record(
            trace.record() - start, device.row_bytes
        )
        hits, misses = plan_cache.since(plan_start)
        report.counters.plan_cache_hits = sum(hits.values())
        report.counters.plan_cache_misses = sum(misses.values())
        report.plan_cache_by_op = {
            label: (hits.get(label, 0), misses.get(label, 0))
            for label in {**hits, **misses}
        }
        driver = getattr(device, "driver", None)
        if driver is not None:
            report.allocator = (
                driver.rows_in_use,
                driver.high_water_rows,
                driver.free_rows(),
            )
