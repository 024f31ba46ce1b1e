"""The batched execution engine: fused row-batch kernels over plan templates.

The per-row execution path walks every bulk operation through
``compile -> primitives -> Command objects -> Subarray.activate`` one
row at a time; pure Python dispatch dominates long before the functional
numpy work does.  This engine is the fast path the ROADMAP asks for:

1. **Plan once** -- every row binds a cached
   :class:`~repro.engine.plan.PlanTemplate` (primitive sequence,
   latencies and per-row totals of its op shape) from the controller's
   :class:`~repro.engine.plan.PlanCache`; a (bank, subarray) group whose
   rows are all data rows costs one template lookup.
2. **Execute in bulk** -- all rows of a (bank, subarray) group are
   applied as *one* vectorised numpy operation over an
   ``(N x words_per_row)`` view (:meth:`repro.dram.subarray.Subarray.peek_batch`
   / ``poke_batch``), while the accounting (per-row command
   timing/energy, AAP/AP counts, the command trace's counts) is charged
   exactly as if every row had walked the per-row path -- with one
   counter bump per group.
3. **Overlap across banks** -- groups are issued round-robin across
   banks (:class:`~repro.engine.scheduler.BatchScheduler`), and every
   batch returns a :class:`~repro.engine.scheduler.ParallelismReport`
   comparing serialized vs bank-interleaved makespan.

The fused kernel only engages when it is *provably* equivalent to the
per-row walk: no analog charge model (TRA outcomes would depend on
cell-level state), no injected stuck-at faults in the target subarray
(faults corrupt the B-group walk in ways the fused kernel cannot see),
and no read/write hazards between the rows of a group.  Ineligible
groups transparently fall back to the per-row walk -- results are
always correct; batching is purely an optimisation.

An attached tracer does not change the path.  A fused group's rows
emit the same op, primitive and command events as the per-row walk,
from command schedules bound from their templates
(:meth:`BatchEngine.account_group`); an open
:meth:`~repro.dram.commands.CommandTrace.capture` receives the same
schedules.  Without either, no row's commands are bound at all.

Known modelling deltas of the fast path (documented, not observable
through the bulk-op API): B-group designated rows are not rewritten (all
microprograms re-copy their operands into the B-group before using it,
so no later operation can observe the stale values), and
retention-refresh stamps of the rows a group touches are set to the
group's issue time instead of each primitive's individual clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, repeat
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.microprograms import StepProgram, apply_bulk_op
from repro.dram.chip import RowLocation
from repro.dram.commands import IssuedCommand
from repro.engine.plan import PlanTemplate, Rows
from repro.engine.scheduler import BatchScheduler, CommandGroup, ParallelismReport
from repro.errors import AddressError, DramProtocolError

__all__ = ["BatchEngine", "BatchReport", "apply_bulk_op"]

#: One row list per operand (or scratch) slot, aligned with ``dst``.
Columns = Sequence[Sequence[RowLocation]]


@dataclass(frozen=True)
class BatchReport:
    """Outcome of one batched bulk operation."""

    #: Rows executed in total.
    rows: int
    #: Rows that took the fused numpy kernel.
    fused_rows: int
    #: Rows that fell back to the per-row command walk.
    fallback_rows: int
    #: Serialized-vs-interleaved makespan comparison for the batch.
    parallelism: ParallelismReport
    #: Worker processes the batch was sharded across (1 = in-process).
    shards: int = 1


class _Group:
    """All rows of one batch that target one (bank, subarray)."""

    __slots__ = ("bank", "subarray", "indices", "rows", "templates")

    def __init__(self, bank: int, subarray: int):
        self.bank = bank
        self.subarray = subarray
        self.indices: List[int] = []
        #: Each row's binding ``(dk, *srcs, *temps)``, in row order.
        self.rows: List[List[int]] = []
        #: One template for every row, or one per row
        #: (:meth:`repro.engine.plan.PlanCache.lookup`).
        self.templates: List[PlanTemplate] = []

    @property
    def duration_ns(self) -> float:
        templates = self.templates
        if len(templates) == 1:
            return templates[0].total_ns(len(self.rows))
        return sum(template.totals.ns for template in templates)

    def bindings(self) -> Iterator[Tuple[Rows, PlanTemplate]]:
        """``(rows, template)`` of every row, in row order."""
        if len(self.templates) == 1:
            return zip(self.rows, repeat(self.templates[0]))
        return zip(self.rows, self.templates)


class BatchEngine:
    """Batched execution of bulk operations on an Ambit device.

    Sits between the driver and the chip: callers hand over *row lists*
    (operand ``i`` of every list lives in the same subarray -- the
    driver's co-location contract) and the engine plans, fuses, and
    issues them with bank-level overlap.
    """

    def __init__(self, device):
        self.device = device
        self.controller = device.controller
        self.chip = device.chip
        self.scheduler = BatchScheduler()
        metrics = getattr(device, "metrics", None)
        self._m_batches = self._m_rows = self._m_makespan = None
        if metrics is not None:
            self._m_batches = metrics.counter(
                "ambit_batches_total", "Batched bulk operations executed"
            )
            self._m_rows = metrics.counter(
                "ambit_batch_rows_total",
                "Rows executed through the batch engine",
                labels=("path",),
            )
            self._m_makespan = metrics.histogram(
                "ambit_batch_makespan_ns",
                "Accounted bank-interleaved makespan per batch (ns)",
            )

    # ------------------------------------------------------------------
    @property
    def plan_cache(self):
        return self.controller.plan_cache

    def run_rows(
        self,
        op: StepProgram,
        dst: Sequence[RowLocation],
        *srcs: Optional[Sequence[RowLocation]],
        temps: Columns = (),
        fuse: bool = True,
    ) -> BatchReport:
        """Execute ``dst[i] = op(srcs[0][i], srcs[1][i], ...)`` for every row.

        ``op`` is one of the nine :class:`~repro.core.microprograms.BulkOp`\\ s
        or a compiled op; ``srcs`` hold one row list per input (``None``
        entries are dropped) and ``temps`` one row list per scratch slot
        the op clobbers.  All rows of index ``i`` must share ``dst[i]``'s
        (bank, subarray); stage strays first
        (:meth:`repro.core.driver.AmbitDriver.stage_for`).  Timing,
        energy, statistics, and the command trace are charged exactly as
        the per-row path would.

        ``fuse=False`` forces every group down the per-row command walk
        -- the dispatch auto-tuner's "serial" tier.  The observable
        outcome is identical either way (that is the engine's core
        parity property); only wall-clock changes.
        """
        srcs = [col for col in srcs if col is not None]
        n = len(dst)
        _check_aligned(n, srcs, temps)
        if n == 0:
            return BatchReport(
                rows=0, fused_rows=0, fallback_rows=0,
                parallelism=self.scheduler.report(()),
            )

        # Runtime spare-row remapping happens here, at batch entry, so
        # planning, fusion, and accounting all see the repaired rows.
        dst = self.translate_rows(dst)
        srcs = [self.translate_rows(col) for col in srcs]
        temps = [self.translate_rows(col) for col in temps]
        groups = self.plan_groups(op, dst, *srcs, temps=temps)
        command_groups = [
            CommandGroup(bank=g.bank, duration_ns=g.duration_ns, payload=g)
            for g in groups
        ]
        parallelism = self.scheduler.report(command_groups)

        fused = 0
        for issued in self.scheduler.order(command_groups):
            group: _Group = issued.payload
            if fuse and self._fused_eligible(group, dst, srcs, temps):
                self._run_group_fused(op, group, dst, srcs, temps)
                fused += len(group.indices)
            else:
                self._run_group_per_row(group)
        if self._m_batches is not None:
            self._m_batches.inc()
            self._m_rows.labels(path="fused").inc(fused)
            self._m_rows.labels(path="fallback").inc(n - fused)
            self._m_makespan.observe(parallelism.makespan_ns)
        return BatchReport(
            rows=n,
            fused_rows=fused,
            fallback_rows=n - fused,
            parallelism=parallelism,
        )

    def run_compiled(
        self, cop, dst, operands, temps, fuse: bool = True
    ) -> BatchReport:
        """``run_rows(cop, dst, *operands, temps=temps, fuse=fuse)``.

        Kept only because ``bench/layers.py`` wraps this name; nothing
        under ``src/`` calls it.  Remove it when a benchmark change
        edits that file's ``LAYERS``.
        """
        return self.run_rows(cop, dst, *operands, temps=temps, fuse=fuse)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def translate_rows(
        self, rows: Optional[Sequence[RowLocation]]
    ) -> Optional[Sequence[RowLocation]]:
        """Resolve a row list through the controller's runtime repair map.

        Identity (and allocation-free) while no spare rows have been
        assigned, which is the common case.
        """
        repair = self.controller.repair
        if rows is None or not repair:
            return rows
        return [
            RowLocation(
                loc.bank,
                loc.subarray,
                repair.translate(loc.bank, loc.subarray, loc.address),
            )
            for loc in rows
        ]

    def plan_groups(
        self,
        op: StepProgram,
        dst: Sequence[RowLocation],
        *srcs: Optional[Sequence[RowLocation]],
        temps: Columns = (),
    ) -> List[_Group]:
        """Validate co-location and bind the batch's per-(bank, subarray)
        groups to plan templates.

        This is the planning front half of :meth:`run_rows`; the sharded
        device calls it directly so its plan-cache traffic (and thus the
        hit/miss counters) matches the single-process engine exactly.
        The co-location contract covers destination, operand *and*
        scratch rows.  A group of data rows gets one template, looked up
        once; a group binding reserved rows gets one per row.
        """
        srcs = [col for col in srcs if col is not None]
        operands = srcs + list(temps)
        groups: Dict[Tuple[int, int], _Group] = {}
        for i, d in enumerate(dst):
            bank, sub = d.bank, d.subarray
            rows = [d.address]
            for col in operands:
                loc = col[i]
                if loc.bank != bank or loc.subarray != sub:
                    raise AddressError(
                        f"batch operands of row {i} must share a subarray: "
                        f"{loc} vs bank {bank} subarray {sub} "
                        f"(stage cross-subarray operands first)"
                    )
                rows.append(loc.address)
            group = groups.get((bank, sub))
            if group is None:
                group = groups[bank, sub] = _Group(bank, sub)
            group.indices.append(i)
            group.rows.append(rows)
        lookup = self.plan_cache.lookup
        route = self.controller.dcc_route
        arity = len(srcs)
        for key, group in groups.items():
            group.templates = lookup(op, group.rows, arity, route.get(key, 0))
        return list(groups.values())

    def plan_groups_compiled(self, cop, dst, operands, temps) -> List[_Group]:
        """``plan_groups(cop, dst, *operands, temps=temps)``.

        Kept only because ``bench/layers.py`` wraps this name; nothing
        under ``src/`` calls it.  Remove it when a benchmark change
        edits that file's ``LAYERS``.
        """
        return self.plan_groups(cop, dst, *operands, temps=temps)

    # ------------------------------------------------------------------
    # Eligibility
    # ------------------------------------------------------------------
    def _fused_eligible(
        self,
        group: _Group,
        dst: Sequence[RowLocation],
        srcs: Columns,
        temps: Columns,
    ) -> bool:
        subarray = self.chip.bank(group.bank).subarray(group.subarray)
        if subarray.has_faults or subarray.amps.charge_model is not None:
            return False
        # Hazard check: the fused kernel reads every operand column up
        # front, then writes the destination and scratch columns; any
        # write-write aliasing across the group's rows (duplicate
        # destinations, shared scratch rows) or write-read overlap must
        # take the sequential per-row walk.
        write_addrs = [dst[i].address for i in group.indices]
        for col in temps:
            write_addrs.extend([col[i].address for i in group.indices])
        if len(set(write_addrs)) != len(write_addrs):
            return False
        read_addrs = {col[i].address for col in srcs for i in group.indices}
        return not (set(write_addrs) & read_addrs)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _run_group_fused(
        self,
        op: StepProgram,
        group: _Group,
        dst: Sequence[RowLocation],
        srcs: Columns,
        temps: Columns,
    ) -> None:
        bank, sub = group.bank, group.subarray
        if self.chip.bank(bank).open_subarray is not None:
            raise DramProtocolError(
                f"bank {bank} must be precharged before a bulk operation"
            )
        subarray = self.chip.bank(bank).subarray(sub)
        indices = group.indices
        start_ns = self.chip.clock_ns

        # Functional effect: the op's steps over the whole group at once.
        sources = [
            subarray.peek_batch([col[i].address for i in indices])
            for col in srcs
        ]
        result, temp_values = op.eval_rows(sources)
        dst_addrs = [dst[i].address for i in indices]
        subarray.poke_batch(dst_addrs, result, now_ns=start_ns)
        # Scratch rows end a per-row walk holding their final step
        # values; poke them too so fused and per-row leave identical
        # memory behind (the dispatch-parity property).
        touched = list(dst_addrs)
        for col, values in zip(temps, temp_values):
            temp_addrs = [col[i].address for i in indices]
            subarray.poke_batch(temp_addrs, values, now_ns=start_ns)
            touched.extend(temp_addrs)
        # Source activations restore (and thereby refresh) their rows.
        for col in srcs:
            touched.extend([col[i].address for i in indices])
        subarray.touch_rows(touched, now_ns=start_ns)

        self.account_group(op, group)

    def account_group(self, op, group: _Group) -> None:
        """Charge one group's rows to the accounting record.

        A group of one template is one counter bump of n rows in the
        chip trace, keyed by the template's
        :class:`~repro.engine.plan.OpTotals` (op and primitive counts,
        commands and energy are folded from those only when read), and
        n x the template's latency of busy time, summed as a per-row
        loop sums it; a group of per-row templates is charged row by
        row.  Busy time and the clock advance once per group.  The
        result equals walking every row through the controller.  The
        fused kernel calls this after its numpy work; the sharded device
        calls it for groups whose *functional* effect ran in a worker
        process -- accounting always happens in the process that owns
        the stats, so merged counters, energy, and golden traces stay
        exact.

        Only an attached tracer or an open capture binds the rows'
        command schedules: the tracer's events equal those the per-row
        walk emits, and the capture receives the commands in order.
        """
        bank, sub = group.bank, group.subarray
        trace = self.chip.trace
        tracer = self.chip.tracer
        templates = group.templates
        rows = len(group.rows)
        if len(templates) == 1:
            template = templates[0]
            trace.charge(template.totals, rows)
            total_ns = template.total_ns(rows)
        else:
            total_ns = 0.0
            for template in templates:
                trace.charge(template.totals)
                total_ns += template.totals.ns
        if tracer is not None or trace.capturing:
            schedule = self.plan_cache.schedule
            clock_ns = self.chip.clock_ns
            for bound, template in group.bindings():
                commands = schedule(template, bound, bank, sub)
                trace.log(commands)
                if tracer is not None:
                    clock_ns = _emit_plan(
                        tracer, template, commands, bank, sub, clock_ns
                    )
        controller = self.controller
        stats = controller.stats
        stats.busy_ns += total_ns
        stats.bank_busy_ns[bank] += total_ns
        metrics = controller.op_metrics(op.value)
        if metrics is not None:
            ops, latency = metrics
            ops.inc(rows)
            if len(templates) == 1:
                latency.observe(templates[0].totals.ns, count=rows)
            else:
                for template in templates:
                    latency.observe(template.totals.ns)
            controller._m_busy.inc(total_ns)
        self.chip.clock_ns += total_ns

    def _run_group_per_row(self, group: _Group) -> None:
        for rows, template in group.bindings():
            self.controller.run_plan(
                template.plan(rows), group.bank, group.subarray
            )


def _emit_plan(
    tracer,
    template: PlanTemplate,
    schedule: Tuple[IssuedCommand, ...],
    bank: int,
    subarray: int,
    clock_ns: float,
) -> float:
    """Emit one row's tracer events from its command schedule.

    The events and their order are those of
    :meth:`repro.core.controller.AmbitController.run_plan`: each
    primitive's commands at the primitive's start, then the primitive,
    all inside one op span.  ``clock_ns`` is the row's start and steps
    by each primitive's latency, as the controller's clock does; the
    row's end is returned.
    """
    tracer.begin_op(template.op.value, bank, subarray, clock_ns)
    commands = iter(schedule)
    for (kind, _), latency in zip(template.primitives, template.latencies_ns):
        for issued in islice(commands, kind.num_commands):
            tracer.record_command(issued, clock_ns)
        tracer.record_primitive(kind.__name__, bank, subarray, clock_ns, latency)
        clock_ns += latency
    tracer.end_op(clock_ns)
    return clock_ns


def _check_aligned(n: int, srcs: Columns, temps: Columns) -> None:
    """Raise unless every operand and scratch row list has ``n`` rows."""
    for kind, columns in (("source", srcs), ("temp", temps)):
        for k, rows in enumerate(columns):
            if len(rows) != n:
                raise AddressError(
                    f"batch operand lists must align: {kind} {k} has "
                    f"{len(rows)} rows, dst has {n}"
                )
