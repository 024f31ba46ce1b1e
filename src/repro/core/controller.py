"""The Ambit controller (Section 5.5.2).

Sits where the memory controller sits: it knows the address groups, the
timing of the ACTIVATE variants, and the command sequences of the bulk
bitwise operations.  Executing a bulk operation means compiling it to a
microprogram (:mod:`repro.core.microprograms`), streaming the resulting
DRAM commands to the chip, and advancing the model clock by the
primitive latencies.

The controller is deliberately *per-device but subarray-agnostic*: a
bulk operation may be issued to any (bank, subarray) pair, and
operations to different banks can overlap in time (bank-level
parallelism), which :meth:`AmbitController.elapsed_parallel_ns` models.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterator, Optional, Sequence, Tuple

from repro.core.addressing import AmbitAddressMap
from repro.core.microprograms import BulkOp, Microprogram, StepProgram
from repro.core.repair import RowRepairMap
from repro.dram.chip import DramChip
from repro.dram.commands import CommandTrace, canonical_tally
from repro.dram.timing import TimingParameters
from repro.engine.plan import OpTotals, PlanCache, RowPlan
from repro.errors import DramProtocolError


class ControllerStats:
    """Cumulative accounting of executed work since the stats began.

    Busy time is kept here.  Op and primitive counts are folds over the
    chip trace's record (:class:`~repro.dram.commands.CommandTrace`):
    every op execution is a count against its
    :class:`~repro.engine.plan.OpTotals`, so these properties read
    ``sum(count x totals)`` over the executions since the stats began.
    """

    def __init__(self, trace: CommandTrace):
        self.trace = trace
        self._start = trace.record()
        #: Serial time: every primitive on every bank, end to end.
        self.busy_ns = 0.0
        #: Per-bank busy time, for the bank-parallel makespan.
        self.bank_busy_ns: Dict[int, float] = defaultdict(float)

    def _runs(self) -> Iterator[Tuple[OpTotals, int]]:
        """``(totals, executions)`` of every op run since the stats began."""
        return (self.trace.record() - self._start).runs()

    @property
    def ops(self) -> Dict[StepProgram, int]:
        """Completed bulk operations by op (RowClone-PSM copies excluded)."""
        ops: Dict[StepProgram, int] = defaultdict(int)
        for totals, n in self._runs():
            if totals.op is not None:
                ops[totals.op] += n
        return ops

    @property
    def aap_count(self) -> int:
        return sum(totals.aaps * n for totals, n in self._runs())

    @property
    def ap_count(self) -> int:
        return sum(totals.aps * n for totals, n in self._runs())

    def makespan_ns(self) -> float:
        """Completion time with perfect bank-level overlap.

        Ambit's throughput "scales linearly with ... the memory-level
        parallelism available inside DRAM (number of banks)" (Section 1);
        independent per-bank command streams proceed concurrently, so the
        makespan is the busiest bank's serial time.
        """
        if not self.bank_busy_ns:
            return 0.0
        return max(self.bank_busy_ns.values())


class AmbitController:
    """Executes bulk bitwise operations on an Ambit-enabled DRAM chip.

    Parameters
    ----------
    chip:
        A :class:`~repro.dram.chip.DramChip` built with the Ambit split
        decoder (see :class:`repro.core.device.AmbitDevice`).
    timing:
        DRAM speed grade used for latency accounting.
    split_decoder:
        When False, every AAP pays the serial ``2*tRAS + tRP`` latency
        (the Section 5.3 ablation).
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; when given,
        the controller counts completed bulk operations and feeds the
        per-op accounted-latency histogram (the batch engine feeds the
        same families for fused rows, so both execution paths expose one
        coherent view).
    """

    def __init__(
        self,
        chip: DramChip,
        timing: TimingParameters,
        split_decoder: bool = True,
        metrics: Optional[object] = None,
    ):
        self.chip = chip
        self.timing = timing
        self.split_decoder = split_decoder
        self.amap = AmbitAddressMap(chip.geometry.subarray)
        self.stats = ControllerStats(chip.trace)
        #: Plan templates, one per op shape (shared with the batch
        #: engine).  Survives :meth:`reset_stats` -- only its hit/miss
        #: counters are statistics.
        self.plan_cache = PlanCache(
            self.amap, timing, split_decoder, metrics=metrics
        )
        #: Runtime spare-row remapping (Section 5.5.3), consulted on the
        #: address path of every bulk operation and backdoor row access.
        #: Empty by default; the fault-recovery layer populates it.
        self.repair = RowRepairMap()
        #: Per-(bank, subarray) DCC route for single-negation programs:
        #: 0 (DCC0, the default) or 1 (DCC1).  The fault-recovery layer
        #: flips a subarray's route when its DCC0 n-wordline breaks.
        self.dcc_route: Dict[Tuple[int, int], int] = {}
        self.metrics = metrics
        self._m_ops = self._m_latency = self._m_busy = None
        #: Op label -> its ``ambit_ops_total`` and ``ambit_op_latency_ns``
        #: children (see :meth:`op_metrics`).
        self._op_metrics: Dict[str, tuple] = {}
        if metrics is not None:
            self._m_ops = metrics.counter(
                "ambit_ops_total",
                "Completed bulk bitwise operations",
                labels=("op",),
            )
            self._m_latency = metrics.histogram(
                "ambit_op_latency_ns",
                "Accounted per-row latency of bulk operations (ns)",
                labels=("op",),
            )
            self._m_busy = metrics.counter(
                "ambit_busy_ns_total",
                "Serial accounted busy time across all banks (ns)",
            ).labels()

    # ------------------------------------------------------------------
    # Bulk operations
    # ------------------------------------------------------------------
    def bbop(
        self,
        op: StepProgram,
        bank: int,
        subarray: int,
        dk: int,
        *srcs: Optional[int],
        temps: Sequence[int] = (),
    ) -> Microprogram:
        """Execute one bulk bitwise operation on one subarray.

        ``op`` is one of the nine :class:`BulkOp`\\ s or a compiled op
        (:class:`repro.compile.ops.CompiledOp`).  ``dk`` and ``srcs``
        are local row addresses (D-group for data, C-group sources are
        allowed so tests can use constant rows; ``None`` sources are
        dropped), and ``temps`` the scratch rows a compiled op's steps
        clobber.  Returns the microprogram that was executed.

        The op's shape compiles once into a template in
        :attr:`plan_cache`; every later binding (every row of a striped
        bitvector) reuses its primitive sequence and latencies.

        Addresses first pass through :attr:`repair` (runtime spare-row
        remapping) and the program through :attr:`dcc_route`, so callers
        never see repaired rows or rerouted negations.
        """
        if None in srcs:
            srcs = tuple(s for s in srcs if s is not None)
        temps = tuple(temps)
        if self.repair:
            translate = self.repair.translate
            dk = translate(bank, subarray, dk)
            srcs = tuple(translate(bank, subarray, r) for r in srcs)
            temps = tuple(translate(bank, subarray, r) for r in temps)
        dcc = self.dcc_route.get((bank, subarray), 0)
        plan = self.plan_cache.get(op, dk, *srcs, temps=temps, dcc=dcc)
        self.run_plan(plan, bank, subarray)
        return plan.program

    def bbop_compiled(self, cop, bank, subarray, dk, srcs, temps):
        """``bbop(cop, bank, subarray, dk, *srcs, temps=temps)``.

        Kept only because ``bench/layers.py`` wraps this name; nothing
        under ``src/`` calls it.  Remove it when a benchmark change
        edits that file's ``LAYERS``.
        """
        return self.bbop(cop, bank, subarray, dk, *srcs, temps=temps)

    def run_program(self, program: Microprogram, bank: int, subarray: int) -> None:
        """Stream an already-compiled microprogram to the chip.

        When a tracer is attached to the chip, each primitive is emitted
        as a span with its accounted latency, and the whole program as a
        bulk-op span carrying aggregate attributes.
        """
        latencies = tuple(
            p.latency_ns(self.timing, self.amap, self.split_decoder)
            for p in program.primitives
        )
        self._run(program, latencies, bank, subarray)

    def run_plan(self, plan: RowPlan, bank: int, subarray: int) -> None:
        """Stream a cached plan to the chip (latencies pre-computed)."""
        self._run(plan.program, plan.latencies_ns, bank, subarray, plan.totals)

    def _run(
        self,
        program: Microprogram,
        latencies: Tuple[float, ...],
        bank: int,
        subarray: int,
        plan_totals: Optional[OpTotals] = None,
    ) -> None:
        if self.chip.bank(bank).open_subarray is not None:
            raise DramProtocolError(
                f"bank {bank} must be precharged before a bulk operation"
            )
        tracer = self.chip.tracer
        if tracer is not None:
            tracer.begin_op(program.op.value, bank, subarray, self.chip.clock_ns)
        trace = self.chip.trace
        mark = dict(trace.tally)
        total_ns = 0.0
        for primitive, latency in zip(program.primitives, latencies):
            start_ns = self.chip.clock_ns
            for command in primitive.commands(bank, subarray):
                self.chip.execute(command)
            self._account(bank, latency)
            total_ns += latency
            if tracer is not None:
                tracer.record_primitive(
                    type(primitive).__name__, bank, subarray, start_ns, latency
                )
        # The op is credited with what the chip executed: its plan's
        # totals, unless the chip raised other wordlines than planned.
        executed = trace.executed_since(mark)
        totals = plan_totals
        if totals is None or dict(totals.commands) != executed:
            totals = self.plan_cache.totals(
                program.op, program.op.value, program.num_aap,
                program.num_ap, total_ns, canonical_tally(executed),
            )
        trace.credit(totals)
        metrics = self.op_metrics(program.op.value)
        if metrics is not None:
            ops, latency = metrics
            ops.inc()
            latency.observe(total_ns)
            self._m_busy.inc(total_ns)
        if tracer is not None:
            tracer.end_op(self.chip.clock_ns)

    def op_metrics(self, label: str):
        """The ``ambit_ops_total`` counter and ``ambit_op_latency_ns``
        histogram of one op label (``None`` without a registry)."""
        metrics = self._op_metrics.get(label)
        if metrics is None and self._m_ops is not None:
            metrics = self._op_metrics[label] = (
                self._m_ops.labels(op=label),
                self._m_latency.labels(op=label),
            )
        return metrics

    def copy(self, bank: int, subarray: int, src: int, dst: int) -> None:
        """RowClone-FPM copy through the AAP machinery."""
        self.bbop(BulkOp.COPY, bank, subarray, dst, src)

    # ------------------------------------------------------------------
    # Latency queries (no execution)
    # ------------------------------------------------------------------
    def op_latency_ns(self, op: BulkOp) -> float:
        """Latency of one bulk operation on one subarray (one row pair).

        Uses representative D-group addresses; every instance of an op
        has the same primitive structure, so the latency is uniform.
        The op's template is cached, so repeated queries are O(1).
        """
        plan = self.plan_cache.get(op, 3, *range(op.arity))
        return plan.total_ns

    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        """Clear accumulated statistics and the command trace's counts.

        The plan cache's templates survive (they are derived state, not
        statistics); only its hit/miss counters are zeroed.
        """
        self.stats = ControllerStats(self.chip.trace)
        self.chip.trace.clear()
        self.plan_cache.reset_counters()

    def _account(self, bank: int, latency: float) -> None:
        self.stats.busy_ns += latency
        self.stats.bank_busy_ns[bank] += latency
        self.chip.clock_ns += latency
