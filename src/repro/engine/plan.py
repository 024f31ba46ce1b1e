"""Microprogram plan cache: compile once, execute many.

Every instance of a bulk bitwise operation with the same local row
addresses compiles to the *same* microprogram, the same per-primitive
latencies, and (per bank/subarray) the same DRAM command stream.  The
driver places co-operating bitvectors at matching local addresses across
stripes, so a vector-wide operation is thousands of executions of a
handful of distinct plans.  :class:`PlanCache` memoises that compilation:

* :class:`RowPlan` -- one compiled bulk operation: the
  :class:`~repro.core.microprograms.Microprogram`, its per-primitive
  latencies under the cache's timing/decoder configuration, and its
  per-row :class:`OpTotals` -- what the accounting record charges for
  each row (AAPs, APs, latency, commands by kind and wordlines raised).
  Both depend only on the plan's shape (op, DCC route, and which bound
  rows are B-group addresses), so they are computed once per shape, and
  plans with equal totals share one totals object
  (:meth:`PlanCache.totals`).
* :meth:`PlanCache.issued_commands` -- the flat
  :class:`~repro.dram.commands.IssuedCommand` schedule of a plan on one
  ``(bank, subarray)``, byte-identical to what
  :meth:`repro.dram.chip.DramChip.execute` would append to the command
  trace (wordline counts and AAP-overlap flags included), so the batch
  engine can extend the trace without re-executing the state machine.

Schedules are tuples of shared entries.  Every bulk op is a fixed
AAP/AP sequence over a subarray's data rows and its reserved B- and
C-group addresses (Figure 8, Table 1), so the geometry fixes the set of
distinct commands a subarray can ever receive: at most two ACTIVATEs per
``(bank, subarray, row address)`` -- a fresh sense, and the second
ACTIVATE of an AAP landing on the open row -- plus one PRECHARGE per
``(bank, subarray)``.  The cache builds each such command site's
:class:`~repro.dram.commands.IssuedCommand` once, on first use, and
keeps it for its own lifetime; a schedule only picks entries.  So an AND
and an OR writing the same ``dk`` share the entries of their final
``AAP(B12, dk)``, a plan recompiled after eviction gets the very same
entries back, and ``chip.trace`` holds references rather than copies.
Evicting a plan drops its schedule tuples but never the shared entries.
Entries must never be mutated; ``IssuedCommand`` is frozen, so an
assignment to one raises instead of rewriting other plans' schedules
and past trace entries.

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
from repro.dram.commands import (
    Command,
    IssuedCommand,
    Opcode,
    Tally,
    canonical_tally,
)
from repro.dram.timing import TimingParameters

#: Cache key: the operation, its local rows, and the DCC route.
PlanKey = Tuple[StepProgram, int, Tuple[int, ...], Tuple[int, ...], int]


class OpTotals:
    """What one execution of an op costs, as the accounting record counts it.

    The chip trace's counters are keyed by these objects
    (:class:`~repro.dram.commands.CommandTrace`); every statistic of a
    run -- op and primitive counts, busy time, commands, energy -- is a
    fold of ``count x totals`` over them.  Build them only through
    :meth:`PlanCache.totals`, which returns one shared object per
    distinct value, so the counters hash them by identity.
    """

    __slots__ = ("op", "name", "aaps", "aps", "ns", "commands", "num_commands")

    def __init__(self, op, name: str, aaps: int, aps: int, ns: float,
                 commands: Tally):
        #: The executed :class:`~repro.core.microprograms.StepProgram`,
        #: or ``None`` for a RowClone-PSM copy.
        self.op = op
        #: Label of the execution (``op.value``, or ``"psm_copy"``).
        self.name = name
        self.aaps = aaps
        self.aps = aps
        #: Accounted latency of one execution.
        self.ns = ns
        #: Bus commands of one execution, by kind and wordlines raised.
        self.commands = commands
        self.num_commands = sum(n for _, n in commands)

    def __repr__(self) -> str:
        return (
            f"OpTotals({self.name}, {self.aaps} AAP + {self.aps} AP, "
            f"{self.ns} ns, {self.num_commands} commands)"
        )


@dataclass(frozen=True)
class RowPlan:
    """One compiled bulk operation with pre-computed cost metadata."""

    key: PlanKey
    program: Microprogram
    #: Accounted latency of each primitive, in program order.
    latencies_ns: Tuple[float, ...]
    #: Sum of ``latencies_ns`` -- the per-row latency of the operation.
    total_ns: float
    #: What the accounting record charges per row (shared by every plan
    #: with equal totals).
    totals: OpTotals = field(compare=False, repr=False)
    #: ``(bank, subarray)`` -> the plan's flat command schedule there
    #: (see :meth:`PlanCache.issued_commands`): a tuple of the cache's
    #: shared per-site entries.  Held by the plan, so an evicted plan
    #: takes its tuples with it; the entries stay in the cache's site
    #: table, at most two ACTIVATEs per (bank, subarray, row address)
    #: plus one PRECHARGE per (bank, subarray).
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
        #: Command site -> its one shared schedule entry (see
        #: :meth:`issued_commands`); never trimmed, bounded by geometry.
        self._sites = _SiteTable(amap)
        #: Value -> the one :class:`OpTotals` with that value (see
        #: :meth:`totals`); never trimmed, one entry per distinct cost.
        self._totals: Dict[tuple, OpTotals] = {}
        #: Plan shape -> its latencies and totals (see :meth:`_install`);
        #: never trimmed, a few entries per op.
        self._templates: Dict[tuple, Tuple[Tuple[float, ...], OpTotals]] = {}
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

    def _install(self, key: PlanKey, program: Microprogram) -> RowPlan:
        op, dk, srcs, temps, dcc = key
        # A program binds its rows into the fixed AAP/AP sequence of its
        # op and DCC route, and a bound row costs differently only when
        # it is a B-group address: that raises other wordlines and
        # decides AAP overlap.  So plans of one shape share latencies
        # and totals, computed once per shape.
        b_group = self._sites.wordlines
        shape = (op, dcc) + tuple(
            row if row in b_group else None for row in (dk, *srcs, *temps)
        )
        template = self._templates.get(shape)
        if template is None:
            template = self._templates[shape] = self._template(program)
        latencies, totals = template
        plan = RowPlan(
            key=key,
            program=program,
            latencies_ns=latencies,
            total_ns=totals.ns,
            totals=totals,
        )
        self._plans[key] = plan
        self._trim()
        return plan

    def _template(
        self, program: Microprogram
    ) -> Tuple[Tuple[float, ...], OpTotals]:
        """A program's per-primitive latencies and per-row totals.

        Its commands: per AAP two ACTIVATEs and a PRECHARGE, per AP one
        of each, each ACTIVATE raising the wordlines the site table
        gives its address.
        """
        latencies = tuple(
            p.latency_ns(self.timing, self.amap, self.split_decoder)
            for p in program.primitives
        )
        wordlines = self._sites.wordlines
        commands: Dict[tuple, int] = {}
        for primitive in program.primitives:
            if isinstance(primitive, AAP):
                addresses = (primitive.addr1, primitive.addr2)
            else:
                addresses = (primitive.addr,)
            for addr in addresses:
                kind = (Opcode.ACTIVATE, wordlines.get(addr, 1))
                commands[kind] = commands.get(kind, 0) + 1
            kind = (Opcode.PRECHARGE, 1)
            commands[kind] = commands.get(kind, 0) + 1
        op = program.op
        return latencies, self.totals(
            op, op.value, program.num_aap, program.num_ap, sum(latencies),
            canonical_tally(commands),
        )

    def totals(
        self,
        op: Optional[StepProgram],
        name: str,
        aaps: int,
        aps: int,
        ns: float,
        commands: Tally,
    ) -> OpTotals:
        """The one :class:`OpTotals` with this value (built on first use).

        Plans call this at install; the controller's per-row walk and
        RowClone-PSM copies call it with the commands the chip executed.
        """
        value = (op, name, aaps, aps, ns, commands)
        totals = self._totals.get(value)
        if totals is None:
            totals = self._totals[value] = OpTotals(*value)
        return totals

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
        row.  The energy fold over the trace is order-independent, so
        repeated extension with the same tuple is byte-equivalent to
        re-execution.

        A hot plan's tuple is one dict lookup on the plan.  A cold plan's
        tuple is assembled from the cache's shared entries, one per
        command site: the ACTIVATE of ``(bank, subarray, row,
        onto_open_row)`` -- at most two per row address -- and the
        PRECHARGE of ``(bank, subarray)``.  Each entry is built once and
        outlives every plan that uses it: evicting a plan drops its tuple,
        never the entries.  Entries are shared by every schedule and by
        ``chip.trace``, so they must never be mutated (``IssuedCommand``
        is frozen).
        """
        cached = plan.schedules.get((bank, subarray))
        if cached is not None:
            return cached
        sites = self._sites
        issued = []
        for primitive in plan.program.primitives:
            if isinstance(primitive, AAP):
                issued.append(sites[bank, subarray, primitive.addr1, False])
                issued.append(sites[bank, subarray, primitive.addr2, True])
            else:
                issued.append(sites[bank, subarray, primitive.addr, False])
            issued.append(sites[bank, subarray])
        commands = plan.schedules[bank, subarray] = tuple(issued)
        return commands


class _SiteTable(dict):
    """Command site -> its one shared schedule entry, built on first lookup.

    Keys are ``(bank, subarray, row, onto_open_row)`` for an ACTIVATE and
    ``(bank, subarray)`` for a PRECHARGE.
    """

    def __init__(self, amap: AmbitAddressMap):
        super().__init__()
        #: Wordlines an ACTIVATE raises, by B-group address (Table 1);
        #: any other address raises one.
        self.wordlines = {
            addr: len(wordlines)
            for addr, wordlines in amap.b_group_wordlines().items()
        }

    def __missing__(self, site: tuple) -> IssuedCommand:
        if len(site) == 2:
            bank, subarray = site
            entry = IssuedCommand(
                Command(Opcode.PRECHARGE, bank=bank, subarray=subarray)
            )
        else:
            bank, subarray, row, onto_open = site
            entry = IssuedCommand(
                Command(Opcode.ACTIVATE, bank=bank, subarray=subarray, row=row),
                wordlines_raised=self.wordlines.get(row, 1),
                onto_open_row=onto_open,
            )
        self[site] = entry
        return entry
