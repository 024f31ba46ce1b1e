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

Every batch is planned once, by :meth:`BatchEngine.plan_groups`, and run
from that plan by ``run_groups`` -- the engine's or the device's.  The
plan checks the batch (:func:`group_rows`),
resolves each (bank, subarray) group's rows through the runtime repair
map while keeping the caller's addresses, tests the rows' independence
once (:func:`dependent_row`) and binds every row to a template, which
checks its binding positions.  A malformed batch raises
:class:`~repro.errors.AddressError` before anything runs.  The
fault-tolerant session verifies a call from the same plan it hands to
the device.

The fused kernel only engages when it is *provably* equivalent to the
per-row walk: no analog charge model (TRA outcomes would depend on
cell-level state), no injected stuck-at faults in the target subarray
(faults corrupt the B-group walk in ways the fused kernel cannot see),
and independent rows (:func:`dependent_row`): no row writes a row, as
destination or scratch, that another row of the group reads or writes.
A row may read its own destination, so in-place rows fuse, and rows may
share sources.  Ineligible groups transparently fall back to the
per-row walk, in row order -- results are always correct; batching is
purely an optimisation.

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
from itertools import chain, islice, repeat
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


class RowGroup:
    """All rows of one batch that target one (bank, subarray)."""

    __slots__ = (
        "bank", "subarray", "arity", "indices", "logical", "rows",
        "dependent", "templates", "_columns",
    )

    def __init__(self, bank: int, subarray: int, arity: int):
        self.bank = bank
        self.subarray = subarray
        #: Sources per row: binding positions ``1..arity``.
        self.arity = arity
        #: Each row's position in the batch, ascending.
        self.indices: List[int] = []
        #: Each row's binding ``(dk, *srcs, *temps)`` as the caller
        #: named it, in row order.
        self.logical: List[List[int]] = []
        #: The bindings the device runs: :attr:`logical` resolved
        #: through the runtime repair map (the same list while no row of
        #: the subarray is remapped).
        self.rows = self.logical
        #: :func:`dependent_row` of :attr:`rows`.
        self.dependent: Optional[Tuple[int, int, int]] = None
        #: One template for every row, or one per row
        #: (:meth:`repro.engine.plan.PlanCache.lookup`).
        self.templates: List[PlanTemplate] = []
        self._columns: Optional[List[Tuple[int, ...]]] = None

    @property
    def duration_ns(self) -> float:
        templates = self.templates
        if len(templates) == 1:
            return templates[0].total_ns(len(self.rows))
        return sum(template.totals.ns for template in templates)

    def columns(self) -> List[Tuple[int, ...]]:
        """:attr:`rows` transposed, once: one address column per binding
        position -- the destination, the sources, then the scratch rows."""
        if self._columns is None:
            self._columns = list(zip(*self.rows))
        return self._columns

    def logical_columns(self) -> List[Tuple[int, ...]]:
        """:attr:`logical` transposed, as :meth:`columns`."""
        if self.logical is self.rows:
            return self.columns()
        return list(zip(*self.logical))

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
        (:meth:`repro.core.driver.AmbitDriver.stage_for`).  A batch of
        another shape raises before anything runs.  This is
        :meth:`run_groups` over :meth:`plan_groups`.
        """
        return self.run_groups(
            op, self.plan_groups(op, dst, *srcs, temps=temps), fuse=fuse
        )

    def run_groups(
        self, op: StepProgram, groups: Sequence[RowGroup], fuse: bool = True
    ) -> BatchReport:
        """Execute the groups :meth:`plan_groups` returned for ``op``.

        Timing, energy, statistics, and the command trace are charged
        exactly as the per-row path would.  ``fuse=False`` forces every
        group down the per-row command walk, the reference the parity
        tests compare against.  The observable outcome is identical
        either way (that is the engine's core parity property); only
        wall-clock changes.
        """
        if not groups:
            return BatchReport(
                rows=0, fused_rows=0, fallback_rows=0,
                parallelism=self.scheduler.report(()),
            )
        command_groups = [
            CommandGroup(bank=g.bank, duration_ns=g.duration_ns, payload=g)
            for g in groups
        ]
        parallelism = self.scheduler.report(command_groups)

        n = sum(len(group.indices) for group in groups)
        fused = 0
        for issued in self.scheduler.order(command_groups):
            group: RowGroup = issued.payload
            if fuse and self._fused_eligible(group):
                self._run_group_fused(op, group)
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
    def plan_groups(
        self,
        op: StepProgram,
        dst: Sequence[RowLocation],
        *srcs: Optional[Sequence[RowLocation]],
        temps: Columns = (),
    ) -> List[RowGroup]:
        """Plan a row batch once: the front half of every ``run_rows``.

        Checks the batch and groups it by (bank, subarray)
        (:func:`group_rows`), resolves each group's rows through the
        controller's runtime repair map (the caller's addresses stay on
        :attr:`RowGroup.logical`), tests their independence once
        (:func:`dependent_row`, kept on :attr:`RowGroup.dependent`) and
        binds them to plan templates, which checks binding positions.
        A malformed batch raises :class:`~repro.errors.AddressError`
        here, before anything runs.  A group of data rows gets one
        template, looked up once; a group binding reserved rows gets one
        per row.
        """
        srcs = [col for col in srcs if col is not None]
        groups = group_rows(op, dst, srcs, temps)
        repair = self.controller.repair
        lookup = self.plan_cache.lookup
        route = self.controller.dcc_route
        for group in groups:
            key = (group.bank, group.subarray)
            remap = repair.repairs(*key) if repair else None
            if remap:
                group.rows = [
                    [remap.get(address, address) for address in binding]
                    for binding in group.logical
                ]
            group.dependent = dependent_row(group)
            group.templates = lookup(
                op, group.rows, group.arity, route.get(key, 0)
            )
        return groups

    def plan_groups_compiled(self, cop, dst, operands, temps) -> List[RowGroup]:
        """``plan_groups(cop, dst, *operands, temps=temps)``.

        Kept only because ``bench/layers.py`` wraps this name; nothing
        under ``src/`` calls it.  Remove it when a benchmark change
        edits that file's ``LAYERS``.
        """
        return self.plan_groups(cop, dst, *operands, temps=temps)

    # ------------------------------------------------------------------
    # Eligibility
    # ------------------------------------------------------------------
    def _fused_eligible(self, group: RowGroup) -> bool:
        subarray = self.chip.bank(group.bank).subarray(group.subarray)
        if subarray.has_faults or subarray.amps.charge_model is not None:
            return False
        # The fused kernel reads every source column up front, then
        # writes the destination and scratch columns: that equals the
        # sequential per-row walk only when the rows are independent.
        return group.dependent is None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _run_group_fused(self, op: StepProgram, group: RowGroup) -> None:
        bank, sub, arity = group.bank, group.subarray, group.arity
        if self.chip.bank(bank).open_subarray is not None:
            raise DramProtocolError(
                f"bank {bank} must be precharged before a bulk operation"
            )
        subarray = self.chip.bank(bank).subarray(sub)
        start_ns = self.chip.clock_ns
        dst, *operands = group.columns()
        srcs = list(chain.from_iterable(operands[:arity]))

        # Functional effect: the op's steps over the whole group at once,
        # every source column gathered in one read.
        result, temp_values = op.eval_rows(
            subarray.peek_batch(srcs).reshape(arity, len(dst), -1)
        )
        subarray.poke_batch(dst, result, now_ns=start_ns)
        # Scratch rows end a per-row walk holding their final step
        # values (a multi-output op's leading ones hold its results);
        # poke them too so fused and per-row leave identical memory
        # behind (the dispatch-parity property).
        touched = list(dst)
        for col, values in zip(operands[arity:], temp_values):
            subarray.poke_batch(col, values, now_ns=start_ns)
            touched.extend(col)
        # Source activations restore (and thereby refresh) their rows.
        touched.extend(srcs)
        subarray.touch_rows(touched, now_ns=start_ns)

        self.account_group(group)

    def account_group(self, group: RowGroup) -> None:
        """Charge one group's rows to the accounting record.

        A group of one template is one counter bump of n rows in the
        chip trace, keyed by the template's
        :class:`~repro.engine.plan.OpTotals` (op and primitive counts,
        commands and energy are folded from those only when read), and
        n x the template's latency of busy time, summed as a per-row
        loop sums it; a group of per-row templates is charged row by
        row.  Busy time and the clock advance once per group.  The
        result equals walking every row through the controller.  The
        fused kernel calls this after its numpy work.

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
        stats = self.controller.stats
        stats.busy_ns += total_ns
        stats.bank_busy_ns[bank] += total_ns
        self.chip.clock_ns += total_ns

    def _run_group_per_row(self, group: RowGroup) -> None:
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


def group_rows(
    op: StepProgram,
    dst: Sequence[RowLocation],
    srcs: Columns,
    temps: Columns,
) -> List[RowGroup]:
    """Check a row batch's shape and group its rows by (bank, subarray).

    ``srcs`` must hold one row list per input of ``op`` and ``temps``
    one per scratch slot, each as long as ``dst``, and row ``i`` of
    every list must share ``dst[i]``'s (bank, subarray) -- the driver's
    co-location contract (Section 5.4.2); else
    :class:`~repro.errors.AddressError`.  Groups and rows keep batch
    order.
    """
    if len(srcs) != op.arity:
        raise AddressError(
            f"{op.value} takes {op.arity} source row lists; got {len(srcs)}"
        )
    if len(temps) != op.num_temps:
        raise AddressError(
            f"{op.value} needs {op.num_temps} scratch row lists; "
            f"got {len(temps)}"
        )
    n = len(dst)
    for kind, columns in (("source", srcs), ("temp", temps)):
        for k, rows in enumerate(columns):
            if len(rows) != n:
                raise AddressError(
                    f"batch operand lists must align: {kind} {k} has "
                    f"{len(rows)} rows, dst has {n}"
                )
    operands = [*srcs, *temps]
    groups: Dict[Tuple[int, int], RowGroup] = {}
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
            group = groups[bank, sub] = RowGroup(bank, sub, op.arity)
        group.indices.append(i)
        group.logical.append(rows)
    return list(groups.values())


def dependent_row(group: RowGroup) -> Optional[Tuple[int, int, int]]:
    """The first row of ``group`` that is not independent, or ``None``.

    Rows are independent -- they leave the same cells run in any order
    or all at once -- when no row writes a row, as destination or
    scratch, that another row reads or writes.  A row may read its own
    destination, and rows may share sources.  Returns ``(row, address,
    writer)``, positions in the group: row ``row`` touches ``address``,
    which row ``writer`` writes.
    """
    if len(group.rows) < 2:
        return None
    dst, *operands = group.columns()
    srcs, temps = operands[:group.arity], operands[group.arity:]
    writes = [*dst, *chain.from_iterable(temps)]
    unique = set(writes)
    if len(unique) == len(writes) and unique.isdisjoint(
        chain.from_iterable(srcs)
    ):
        return None
    # Some row is written twice, or written and read: walk the
    # addresses to tell a row reading its own destination from a
    # dependence, and to name the row.
    writer: Dict[int, int] = {}
    for col in (dst, *temps):
        for j, address in enumerate(col):
            writer.setdefault(address, j)
    for col in (dst, *temps, *srcs):
        for j, address in enumerate(col):
            w = writer.get(address, j)
            if w != j:
                return j, address, w
    return None
