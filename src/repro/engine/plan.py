"""Plan templates: compile each bulk-op shape once, bind rows when issued.

Ambit issues every bulk operation as one fixed AAP/AP sequence (Figure
8) and binds the operand row addresses only when it issues it (Section
5.4); SIMDRAM likewise stores each μProgram once and binds rows at run
time.  A program's primitive sequence, latencies and command counts
depend only on its *shape*: the op, the DCC route, and which bound rows
are reserved addresses.  A B-group row raises other wordlines (Table 1)
and decides AAP overlap (Section 5.3); a C-group row costs what a data
row costs but is no valid destination.  Data rows are interchangeable.

:class:`PlanCache` keeps one :class:`PlanTemplate` per shape:

* the op's primitive sequence over *binding positions* -- destination,
  sources in input order, scratch rows -- and the fixed B- and C-group
  addresses the program itself uses;
* the per-primitive latencies under the cache's timing/decoder
  configuration, and the per-row :class:`OpTotals` the accounting record
  charges (AAPs, APs, latency, commands by kind and wordlines raised),
  one shared object per distinct value (:meth:`PlanCache.totals`);
* the binding positions that must hold distinct rows.

Nothing is stored per address.  Templates are bounded by ops x DCC
routes x reserved-row patterns, so the cache needs no eviction.  A miss
compiles one program (:meth:`StepProgram.program`).  Each bound row
counts once, as a hit or a miss, under its operation label, so ``repro
profile`` shows each compiled op as its own line; the counts only grow
(:meth:`PlanCache.counts`).  The shape is keyed under one fixed
``(address map, timing, split_decoder)`` configuration -- the cache is
per-controller, and the controller's configuration is immutable.

Concrete commands are bound from a template only where something reads
them: :meth:`PlanTemplate.bind` gives one row's
:class:`~repro.core.microprograms.Microprogram` for the per-row walk,
and :meth:`PlanCache.schedule` its flat
:class:`~repro.dram.commands.IssuedCommand` stream on one ``(bank,
subarray)`` for an attached tracer or an open capture.  A fused group
of rows is charged from its template alone.

Schedules are tuples of shared entries.  Every bulk op is a fixed
AAP/AP sequence over a subarray's data rows and its reserved B- and
C-group addresses, so the geometry fixes the set of distinct commands a
subarray can ever receive: at most two ACTIVATEs per ``(bank, subarray,
row address)`` -- a fresh sense, and the second ACTIVATE of an AAP
landing on the open row -- plus one PRECHARGE per ``(bank, subarray)``.
The cache builds each such command site's entry once, on first use,
and keeps it for its own lifetime; a schedule only picks entries.
Entries must never be mutated; ``IssuedCommand`` is frozen, so an
assignment to one raises instead of rewriting other schedules and
captured commands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.addressing import AmbitAddressMap
from repro.core.microprograms import Microprogram, StepProgram
from repro.core.primitives import AAP
from repro.dram.commands import (
    Command,
    IssuedCommand,
    Opcode,
    Tally,
    canonical_tally,
    minus,
)
from repro.dram.timing import TimingParameters
from repro.errors import AddressError

#: One row's binding: the destination, the sources in input order, then
#: the scratch rows -- the order :meth:`StepProgram.program` takes them.
Rows = Sequence[int]


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


class PlanTemplate:
    """One compiled op shape, its rows left unbound.

    Addresses in :attr:`primitives` and :attr:`commands` are references:
    ``ref >= 0`` is a fixed address of the program (a B- or C-group row
    it uses), ``ref < 0`` the row at position ``~ref`` of a binding
    ``(dk, *srcs, *temps)``.
    """

    __slots__ = (
        "op", "primitives", "commands", "distinct", "latencies_ns",
        "totals", "_exact_rows",
    )

    def __init__(
        self,
        op: StepProgram,
        primitives: Tuple[Tuple[type, Tuple[int, ...]], ...],
        latencies_ns: Tuple[float, ...],
        totals: OpTotals,
    ):
        self.op = op
        #: ``(AAP or AP, address refs)`` per primitive, in program order.
        self.primitives = primitives
        #: Per bus command, in issue order: ``(address ref,
        #: onto_open_row)`` for an ACTIVATE, ``None`` for a PRECHARGE.
        self.commands: Tuple[Optional[Tuple[int, bool]], ...] = tuple(
            command
            for _, refs in primitives
            for command in (*zip(refs, (False, True)), None)
        )
        #: Binding positions that must hold distinct rows.
        self.distinct = op.distinct_rows()
        #: Accounted latency of each primitive, in program order.
        self.latencies_ns = latencies_ns
        #: What the accounting record charges per row.
        self.totals = totals
        # Row counts below this sum exactly: every partial sum k x ns
        # then has at most 53 significant bits.
        numerator, _ = totals.ns.as_integer_ratio()
        odd = numerator // (numerator & -numerator) if numerator else 0
        self._exact_rows = 1 << max(0, 53 - odd.bit_length())

    def total_ns(self, rows: int) -> float:
        """Latency of ``rows`` executions, summed one row after another.

        That is ``rows x totals.ns`` whenever every partial sum is exact
        (DDR3-1600's quarter-ns latencies); other speed grades add row
        by row, so the result equals a per-row loop's bit for bit.
        """
        ns = self.totals.ns
        if rows < self._exact_rows:
            return rows * ns
        total = 0.0
        for _ in range(rows):
            total += ns
        return total

    def check(self, rows: Rows) -> None:
        """Raise unless ``rows`` keeps :attr:`distinct` positions apart,
        as :meth:`StepProgram.program` would.

        A binding of distinct rows passes on one set comparison; only
        one that repeats a row walks the pairs, to tell an alias the op
        allows (a destination that is also a source) from a clash and to
        name the clash."""
        distinct = self.distinct
        if not distinct or len(set(rows)) == len(rows):
            return
        for i, j in distinct:
            if rows[i] == rows[j]:
                raise AddressError(
                    f"{self.op.value}: binding positions {i} and {j} "
                    f"(destination, sources, scratch rows) must be "
                    f"distinct rows; both are {rows[i]}"
                )

    def bind(self, rows: Rows) -> Microprogram:
        """The program of one binding: what ``op.program`` compiles."""
        return Microprogram(self.op, tuple(
            kind(*[rows[~ref] if ref < 0 else ref for ref in refs])
            for kind, refs in self.primitives
        ))

    def plan(self, rows: Rows) -> "RowPlan":
        """One binding as a :class:`RowPlan` for the per-row walk."""
        rows = tuple(rows)
        return RowPlan(self, rows, self.bind(rows))


@dataclass(frozen=True)
class RowPlan:
    """One row's binding of a template: what the per-row walk executes."""

    template: PlanTemplate
    #: The binding ``(dk, *srcs, *temps)``.
    rows: Tuple[int, ...]
    program: Microprogram

    @property
    def op(self) -> StepProgram:
        return self.template.op

    @property
    def latencies_ns(self) -> Tuple[float, ...]:
        """Accounted latency of each primitive, in program order."""
        return self.template.latencies_ns

    @property
    def totals(self) -> OpTotals:
        """What the accounting record charges per row."""
        return self.template.totals

    @property
    def total_ns(self) -> float:
        """The per-row latency of the operation."""
        return self.template.totals.ns


class PlanCache:
    """Templates of bulk operations, compiled once per shape.

    Parameters
    ----------
    amap:
        The subarray address map (fixed per device).
    timing:
        Speed grade used for the templates' per-primitive latencies.
    split_decoder:
        Decoder configuration the latencies assume (Section 5.3).

    The device's metrics read the cache when scraped: its counts fill
    ``ambit_plan_cache_{hits,misses}_total`` and its size
    ``ambit_plan_cache_plans``.
    """

    def __init__(
        self,
        amap: AmbitAddressMap,
        timing: TimingParameters,
        split_decoder: bool = True,
    ):
        self.amap = amap
        self.timing = timing
        self.split_decoder = split_decoder
        self._data_rows = amap.data_rows
        #: Shape -> its template (see :meth:`lookup`); never trimmed, a
        #: few per op and DCC route.
        self._templates: Dict[tuple, PlanTemplate] = {}
        #: Command site -> its one shared schedule entry (see
        #: :meth:`schedule`); never trimmed, bounded by geometry.
        self._sites = _SiteTable(amap)
        #: Value -> the one :class:`OpTotals` with that value (see
        #: :meth:`totals`); never trimmed, one entry per distinct cost.
        self._totals: Dict[tuple, OpTotals] = {}
        #: Hits and misses by operation label (see :meth:`counts`).
        self._hits: Dict[str, int] = {}
        self._misses: Dict[str, int] = {}
        #: The :meth:`counts` that ``hits`` and ``misses`` start from.
        self._zero = self.counts()
        #: Always 0: templates are bounded by construction and never
        #: evicted.  Kept while benchmark readers still read it.
        self.evictions = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._templates)

    def get(
        self,
        op: StepProgram,
        dk: int,
        *srcs: int,
        temps: Tuple[int, ...] = (),
        dcc: int = 0,
    ) -> RowPlan:
        """The plan for ``op`` at the given local rows, bound from its
        template (compiled on a miss).

        ``srcs`` are the operand rows in input order (``None`` entries,
        for operands an op does not take, are dropped) and ``temps`` the
        op's scratch rows.  ``dcc`` selects the dual-contact row
        carrying single negations; it is part of the shape, so rerouted
        plans never alias.
        """
        if None in srcs:
            srcs = tuple(s for s in srcs if s is not None)
        rows = (dk, *srcs, *temps)
        (template,) = self.lookup(op, [rows], len(srcs), dcc)
        return template.plan(rows)

    def lookup(
        self,
        op: StepProgram,
        rows: Sequence[Rows],
        arity: int,
        dcc: int = 0,
    ) -> List[PlanTemplate]:
        """The templates binding ``rows`` (each new shape compiled once).

        ``rows`` holds one binding ``(dk, *srcs, *temps)`` per row, each
        with ``arity`` sources.  When no row binds a reserved (B- or
        C-group) address, one template serves all rows and is returned
        alone; otherwise the result is one template per row, in row
        order.  Every row counts as one hit or miss, and every binding
        is checked as :meth:`StepProgram.program` checks it.
        """
        if min(map(min, rows)) >= 0 and max(map(max, rows)) < self._data_rows:
            first = rows[0]
            template = self._template(op, first, arity, dcc, len(first))
            if len(rows) > 1:
                if template.distinct:
                    for row in rows:
                        template.check(row)
                self._count_hits(template, len(rows) - 1)
            return [template]
        return [
            self._template(op, row, arity, dcc, self._pattern(row))
            for row in rows
        ]

    def _pattern(self, rows: Rows):
        """The binding's width when every row is a data row, else its
        reserved addresses by position (``None`` for a data row)."""
        data_rows = self._data_rows
        if min(rows) >= 0 and max(rows) < data_rows:
            return len(rows)
        return tuple(None if 0 <= row < data_rows else row for row in rows)

    def _template(
        self, op: StepProgram, rows: Rows, arity: int, dcc: int, pattern
    ) -> PlanTemplate:
        # The shape: the op, its arity, the DCC route and the pattern
        # (see :meth:`_pattern`).
        key = (op, dcc, arity, pattern)
        template = self._templates.get(key)
        if template is None:
            return self._compile(key, rows)
        template.check(rows)
        self._count_hits(template, 1)
        return template

    def _count_hits(self, template: PlanTemplate, n: int) -> None:
        label = template.totals.name
        self._hits[label] = self._hits.get(label, 0) + n

    def _compile(self, key: tuple, rows: Rows) -> PlanTemplate:
        """Compile one binding's program into its shape's template."""
        op, dcc, arity, _ = key
        label = op.value
        self._misses[label] = self._misses.get(label, 0) + 1
        # Compiled over rows that remember their position, the program
        # tells every address apart by where it came from: a destination
        # aliasing a source, or a C-group operand equal to a control row
        # the program itself uses, stay separate positions.
        bound = [_Bound(row, position) for position, row in enumerate(rows)]
        program = op.program(
            self.amap, bound[0], bound[1:1 + arity], bound[1 + arity:], dcc
        )
        primitives = tuple(
            (type(p), tuple(
                ~a.position if isinstance(a, _Bound) else a
                for a in _addresses(p)
            ))
            for p in program.primitives
        )
        latencies = tuple(
            p.latency_ns(self.timing, self.amap, self.split_decoder)
            for p in program.primitives
        )
        # Per AAP two ACTIVATEs and a PRECHARGE, per AP one of each,
        # each ACTIVATE raising the wordlines its address selects.
        wordlines = self._sites.wordlines
        commands: Dict[tuple, int] = {}
        for primitive in program.primitives:
            for addr in _addresses(primitive):
                kind = (Opcode.ACTIVATE, wordlines.get(addr, 1))
                commands[kind] = commands.get(kind, 0) + 1
            kind = (Opcode.PRECHARGE, 1)
            commands[kind] = commands.get(kind, 0) + 1
        totals = self.totals(
            op, label, program.num_aap, program.num_ap, sum(latencies),
            canonical_tally(commands),
        )
        template = self._templates[key] = PlanTemplate(
            op, primitives, latencies, totals
        )
        return template

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

        Templates call this when compiled; the controller's per-row walk
        and RowClone-PSM copies call it with the commands the chip
        executed.
        """
        value = (op, name, aaps, aps, ns, commands)
        totals = self._totals.get(value)
        if totals is None:
            totals = self._totals[value] = OpTotals(*value)
        return totals

    # ------------------------------------------------------------------
    def counts(self) -> Tuple[Dict[str, int], Dict[str, int]]:
        """Per-label ``(hits, misses)`` since the cache was built.  They
        only grow, so two snapshots difference exactly (:meth:`since`),
        :meth:`reset_counters` included."""
        return dict(self._hits), dict(self._misses)

    def since(self, mark: tuple) -> Tuple[Dict[str, int], Dict[str, int]]:
        """Per-label ``(hits, misses)`` counted after ``mark``, a
        :meth:`counts` snapshot; safe while another thread looks up."""
        hits, misses = self.counts()
        return minus(hits, mark[0]), minus(misses, mark[1])

    @property
    def hits_by_op(self) -> Dict[str, int]:
        """Hits by operation label since :meth:`reset_counters`."""
        return self.since(self._zero)[0]

    @property
    def misses_by_op(self) -> Dict[str, int]:
        """Misses by operation label since :meth:`reset_counters`."""
        return self.since(self._zero)[1]

    @property
    def hits(self) -> int:
        return sum(self.hits_by_op.values())

    @property
    def misses(self) -> int:
        return sum(self.misses_by_op.values())

    def reset_counters(self) -> None:
        """Count ``hits`` and ``misses`` from zero again, as
        ``CommandTrace.clear`` does: the zero point moves, the counts and
        the templates stay."""
        self._zero = self.counts()

    # ------------------------------------------------------------------
    # Flat command schedules
    # ------------------------------------------------------------------
    def schedule(
        self, template: PlanTemplate, rows: Rows, bank: int, subarray: int
    ) -> Tuple[IssuedCommand, ...]:
        """One binding's command stream on one subarray, as the chip
        would trace it.

        The entries carry the exact ``wordlines_raised`` and
        ``onto_open_row`` annotations the chip's execute path produces:
        the first ACTIVATE of an AAP (and the ACTIVATE of an AP) is a
        fresh sense, the second ACTIVATE of an AAP lands on the open
        row.  Each entry is the cache's shared one for its command site
        -- the ACTIVATE of ``(bank, subarray, row, onto_open_row)``, at
        most two per row address, and the PRECHARGE of ``(bank,
        subarray)`` -- built once and never mutated (``IssuedCommand``
        is frozen).
        """
        sites = self._sites
        precharge = sites[bank, subarray]
        return tuple(
            precharge if command is None
            else sites[
                bank, subarray,
                rows[~command[0]] if command[0] < 0 else command[0],
                command[1],
            ]
            for command in template.commands
        )

    def issued_commands(
        self, plan: RowPlan, bank: int, subarray: int
    ) -> Tuple[IssuedCommand, ...]:
        """A bound plan's command stream on one subarray (see
        :meth:`schedule`)."""
        return self.schedule(plan.template, plan.rows, bank, subarray)


class _Bound(int):
    """A bound row address that remembers its binding position."""

    def __new__(cls, address: int, position: int) -> "_Bound":
        bound = super().__new__(cls, address)
        bound.position = position
        return bound


def _addresses(primitive) -> Tuple[int, ...]:
    if isinstance(primitive, AAP):
        return (primitive.addr1, primitive.addr2)
    return (primitive.addr,)


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
