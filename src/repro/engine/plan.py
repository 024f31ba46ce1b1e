"""Microprogram plan cache: compile once, execute many.

Every instance of a bulk bitwise operation with the same local row
addresses compiles to the *same* microprogram, the same per-primitive
latencies, and (per bank/subarray) the same DRAM command stream.  The
driver places co-operating bitvectors at matching local addresses across
stripes, so a vector-wide operation is thousands of executions of a
handful of distinct plans.  :class:`PlanCache` memoises that compilation:

* :class:`RowPlan` -- one compiled bulk operation: the
  :class:`~repro.core.microprograms.Microprogram`, its per-primitive
  latencies under the cache's timing/decoder configuration, and the
  aggregate counts the accounting layer needs.
* :meth:`PlanCache.issued_commands` -- the flat
  :class:`~repro.dram.commands.IssuedCommand` schedule of a plan on one
  ``(bank, subarray)``, byte-identical to what
  :meth:`repro.dram.chip.DramChip.execute` would append to the command
  trace (wordline counts and AAP-overlap flags included), so the batch
  engine can extend the trace without re-executing the state machine.

Cache keys are ``(op, dk, srcs, temps, dcc)``: the operation (any
:class:`~repro.core.microprograms.StepProgram` -- one of the paper's
nine ops or a :class:`repro.compile.ops.CompiledOp`), its local
destination, source and scratch rows, and the DCC route, under one
fixed ``(address map, timing, split_decoder)`` configuration -- the
cache is per-controller, and the controller's configuration is
immutable.  Hit/miss statistics are additionally kept per operation
label (``hits_by_op``/``misses_by_op``), so ``repro profile`` shows
each compiled op as its own line.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.addressing import AmbitAddressMap
from repro.core.microprograms import Microprogram, StepProgram
from repro.core.primitives import AAP
from repro.dram.commands import Command, IssuedCommand, Opcode
from repro.dram.timing import TimingParameters

#: Cache key: the operation, its local rows, and the DCC route.
PlanKey = Tuple[StepProgram, int, Tuple[int, ...], Tuple[int, ...], int]


@dataclass(frozen=True)
class RowPlan:
    """One compiled bulk operation with pre-computed cost metadata."""

    key: PlanKey
    program: Microprogram
    #: Accounted latency of each primitive, in program order.
    latencies_ns: Tuple[float, ...]
    #: Sum of ``latencies_ns`` -- the per-row latency of the operation.
    total_ns: float
    num_aap: int
    num_ap: int
    #: Bus commands the plan expands to (3 per AAP, 2 per AP).
    num_commands: int
    #: ``(bank, subarray)`` -> the plan's flat command schedule there
    #: (see :meth:`PlanCache.issued_commands`); held by the plan, so an
    #: evicted plan takes its schedules with it.
    schedules: Dict[Tuple[int, int], Tuple[IssuedCommand, ...]] = field(
        default_factory=dict, compare=False, repr=False
    )

    @property
    def op(self) -> StepProgram:
        return self.program.op


class PlanCache:
    """Memoised compilation of bulk operations to executable plans.

    Parameters
    ----------
    amap:
        The subarray address map (fixed per device).
    timing:
        Speed grade used for the cached per-primitive latencies.
    split_decoder:
        Decoder configuration the latencies assume (Section 5.3).
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; hit/miss
        counters mirror into ``ambit_plan_cache_{hits,misses}_total``
        and a collector samples the compiled-plan count at scrape time.
    """

    def __init__(
        self,
        amap: AmbitAddressMap,
        timing: TimingParameters,
        split_decoder: bool = True,
        metrics: Optional[object] = None,
        max_plans: Optional[int] = None,
    ):
        self.amap = amap
        self.timing = timing
        self.split_decoder = split_decoder
        self._plans: "OrderedDict[PlanKey, RowPlan]" = OrderedDict()
        self._wordline_counts: Optional[Dict[int, int]] = None
        #: Cache statistics; reset with :meth:`reset_counters` (the
        #: compiled plans themselves survive a stats reset).
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Per-operation-label statistics (``op.value`` -> count); the
        #: fix for compiled plans colliding into one profile bucket.
        self.hits_by_op: Dict[str, int] = {}
        self.misses_by_op: Dict[str, int] = {}
        self._max_plans: Optional[int] = None
        self._m_hits = self._m_misses = self._m_evictions = None
        if metrics is not None:
            self._m_hits = metrics.counter(
                "ambit_plan_cache_hits_total", "Plan-cache hits"
            )
            self._m_misses = metrics.counter(
                "ambit_plan_cache_misses_total",
                "Plan-cache misses (microprogram compilations)",
            )
            self._m_evictions = metrics.counter(
                "ambit_plan_cache_evictions_total",
                "Plans evicted by the LRU bound (multi-tenant churn)",
            )
            plans_gauge = metrics.gauge(
                "ambit_plan_cache_plans", "Distinct compiled plans held"
            )
            metrics.register_collector(
                lambda: plans_gauge.set(len(self._plans))
            )
        if max_plans is not None:
            self.max_plans = max_plans

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._plans)

    @property
    def max_plans(self) -> Optional[int]:
        """LRU bound on compiled plans (``None`` = unbounded).

        A single workload compiles a handful of plans and never needs a
        bound; a multi-tenant service allocating and freeing vectors at
        churn compiles an unbounded stream of address combinations, so
        the serving layer installs a bound here.  Setting it trims the
        cache immediately (least recently used first) and counts each
        drop in ``ambit_plan_cache_evictions_total``.
        """
        return self._max_plans

    @max_plans.setter
    def max_plans(self, bound: Optional[int]) -> None:
        if bound is not None and bound < 1:
            raise ValueError(f"max_plans must be >= 1 or None; got {bound}")
        self._max_plans = bound
        self._trim()

    def _trim(self) -> None:
        while self._max_plans is not None and len(self._plans) > self._max_plans:
            # Command schedules live on the plan, so they go with it.
            self._plans.popitem(last=False)
            self.evictions += 1
            if self._m_evictions is not None:
                self._m_evictions.inc()

    @property
    def _commands(self) -> List[Tuple[PlanKey, int, int]]:
        """``(plan key, bank, subarray)`` of every cached schedule."""
        return [
            (key, bank, subarray)
            for key, plan in self._plans.items()
            for bank, subarray in plan.schedules
        ]

    def get(
        self,
        op: StepProgram,
        dk: int,
        *srcs: int,
        temps: Tuple[int, ...] = (),
        dcc: int = 0,
    ) -> RowPlan:
        """The plan for ``op`` at the given local rows (compiling on miss).

        ``srcs`` are the operand rows in input order (``None`` entries,
        for operands an op does not take, are dropped) and ``temps`` the
        op's scratch rows.  ``dcc`` selects the dual-contact row
        carrying single negations; it is part of the key, as is the full
        row binding, so rerouted or differently placed plans never alias.
        """
        if None in srcs:
            srcs = tuple(s for s in srcs if s is not None)
        key = (op, dk, srcs, tuple(temps), dcc)
        plan = self._plans.get(key)
        if plan is not None:
            self._record_hit(op, key)
            return plan
        self._record_miss(op)
        program = op.program(self.amap, dk, srcs, temps, dcc)
        return self._install(key, program)

    def _record_hit(self, op, key) -> None:
        self.hits += 1
        label = op.value
        self.hits_by_op[label] = self.hits_by_op.get(label, 0) + 1
        if self._m_hits is not None:
            self._m_hits.inc()
        if self._max_plans is not None:
            self._plans.move_to_end(key)

    def _record_miss(self, op) -> None:
        self.misses += 1
        label = op.value
        self.misses_by_op[label] = self.misses_by_op.get(label, 0) + 1
        if self._m_misses is not None:
            self._m_misses.inc()

    def _install(self, key, program: Microprogram) -> RowPlan:
        latencies = tuple(
            p.latency_ns(self.timing, self.amap, self.split_decoder)
            for p in program.primitives
        )
        plan = RowPlan(
            key=key,
            program=program,
            latencies_ns=latencies,
            total_ns=sum(latencies),
            num_aap=program.num_aap,
            num_ap=program.num_ap,
            num_commands=sum(p.num_commands for p in program.primitives),
        )
        self._plans[key] = plan
        self._trim()
        return plan

    def reset_counters(self) -> None:
        """Zero the hit/miss counters without dropping compiled plans."""
        self.hits = 0
        self.misses = 0
        self.hits_by_op.clear()
        self.misses_by_op.clear()

    # ------------------------------------------------------------------
    # Flat command schedules
    # ------------------------------------------------------------------
    def issued_commands(
        self, plan: RowPlan, bank: int, subarray: int
    ) -> Tuple[IssuedCommand, ...]:
        """The plan's command stream on one subarray, as the chip would trace it.

        The returned tuple carries the exact ``wordlines_raised`` and
        ``onto_open_row`` annotations the chip's execute path would
        produce: the first ACTIVATE of an AAP (and the ACTIVATE of an AP)
        is a fresh sense, the second ACTIVATE of an AAP lands on the open
        row.  Entries are immutable and shared across executions; the
        energy fold over the trace is order-independent, so repeated
        extension with the same tuple is byte-equivalent to re-execution.
        """
        cached = plan.schedules.get((bank, subarray))
        if cached is not None:
            return cached
        issued = []
        for primitive in plan.program.primitives:
            if isinstance(primitive, AAP):
                issued.append(self._activate(primitive.addr1, bank, subarray, False))
                issued.append(self._activate(primitive.addr2, bank, subarray, True))
            else:
                issued.append(self._activate(primitive.addr, bank, subarray, False))
            issued.append(
                IssuedCommand(
                    Command(Opcode.PRECHARGE, bank=bank, subarray=subarray)
                )
            )
        commands = tuple(issued)
        plan.schedules[(bank, subarray)] = commands
        return commands

    def _activate(
        self, address: int, bank: int, subarray: int, onto_open: bool
    ) -> IssuedCommand:
        return IssuedCommand(
            Command(Opcode.ACTIVATE, bank=bank, subarray=subarray, row=address),
            wordlines_raised=self._wordlines(address),
            onto_open_row=onto_open,
        )

    def _wordlines(self, address: int) -> int:
        """Wordlines an ACTIVATE to ``address`` raises (Table 1)."""
        if self._wordline_counts is None:
            self._wordline_counts = {
                addr: len(wordlines)
                for addr, wordlines in self.amap.b_group_wordlines().items()
            }
        return self._wordline_counts.get(address, 1)
