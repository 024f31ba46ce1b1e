"""DRAM command vocabulary.

Ambit's key interface property (Section 5.1) is that it adds **no new
commands**: every Ambit operation is expressed with the standard
``ACTIVATE`` / ``READ`` / ``WRITE`` / ``PRECHARGE`` vocabulary, and the
chip gives reserved row addresses special meaning internally.

This module defines the command records that flow from the (Ambit-aware)
memory controller to the DRAM chip model, plus the trace that accounts
for what was issued: exact counts of it, and captures of the commands
themselves for the readers that ask for them.
"""

from __future__ import annotations

import enum
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple


class Opcode(enum.Enum):
    """The standard DRAM command opcodes used by Ambit."""

    ACTIVATE = "ACTIVATE"
    READ = "READ"
    WRITE = "WRITE"
    PRECHARGE = "PRECHARGE"
    REFRESH = "REFRESH"

    # Members are singletons compared by identity; hash them by identity
    # too.  ``Enum`` hashes the name in Python, and the trace tallies
    # every executed command under an ``(opcode, wordlines)`` key.
    __hash__ = object.__hash__


@dataclass(frozen=True)
class Command:
    """One DRAM command on the bus.

    Parameters
    ----------
    opcode:
        The DRAM command type.
    bank:
        Target bank index.  ``REFRESH`` is all-bank and ignores it.
    subarray:
        Target subarray within the bank (derived from the row address by
        the chip; carried explicitly in the model for convenience).
    row:
        Row address within the subarray's address space.  This is a
        *logical* per-subarray address; reserved addresses select B- or
        C-group wordlines (see :mod:`repro.core.addressing`).  ``None``
        for READ/WRITE/PRECHARGE.
    column:
        Column (64-bit word index) for READ/WRITE.
    """

    opcode: Opcode
    bank: int = 0
    subarray: int = 0
    row: Optional[int] = None
    column: Optional[int] = None

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        loc = f"b{self.bank}.s{self.subarray}"
        if self.opcode is Opcode.ACTIVATE:
            return f"ACT {loc} row={self.row}"
        if self.opcode in (Opcode.READ, Opcode.WRITE):
            return f"{self.opcode.value} {loc} col={self.column}"
        return f"{self.opcode.value} {loc}"


def activate(bank: int, subarray: int, row: int) -> Command:
    """Convenience constructor for an ``ACTIVATE`` command."""
    return Command(Opcode.ACTIVATE, bank=bank, subarray=subarray, row=row)


def precharge(bank: int, subarray: int = 0) -> Command:
    """Convenience constructor for a ``PRECHARGE`` command."""
    return Command(Opcode.PRECHARGE, bank=bank, subarray=subarray)


def read(bank: int, subarray: int, column: int) -> Command:
    """Convenience constructor for a READ command."""
    return Command(Opcode.READ, bank=bank, subarray=subarray, column=column)


def write(bank: int, subarray: int, column: int) -> Command:
    """Convenience constructor for a WRITE command."""
    return Command(Opcode.WRITE, bank=bank, subarray=subarray, column=column)


@dataclass(frozen=True)
class IssuedCommand:
    """A command together with the number of wordlines it raised.

    Ambit activations can raise 1, 2 or 3 wordlines (Table 1).  The
    energy model charges +22% activation energy per extra wordline
    (Section 7), so the trace records how many wordlines each ACTIVATE
    actually raised, as reported back by the chip.

    Frozen: one entry may sit in many captures and in the plan cache's
    shared command schedules (see :mod:`repro.engine.plan`).
    """

    command: Command
    wordlines_raised: int = 1
    #: True when the ACTIVATE hit an already-activated subarray (the
    #: second ACTIVATE of an AAP).  These are the "overlapped"
    #: activations that the split row decoder accelerates (Section 5.3).
    onto_open_row: bool = False
    #: The 64-bit word a WRITE carried (``None`` for every other
    #: command).  The functional model applies writes immediately, so
    #: without this the payload would be lost to trace dumps and replay
    #: (see :func:`repro.dram.trace_io.dump_trace_with_data`).
    write_value: Optional[int] = None


#: What a command costs: its opcode and the wordlines it raised (1 for
#: everything but a multi-wordline ACTIVATE).
CommandKind = Tuple[Opcode, int]

#: A command tally in canonical, hashable form: ``(kind, count)`` pairs
#: with nonzero counts, sorted by opcode name, then by wordlines.
Tally = Tuple[Tuple[CommandKind, int], ...]


def canonical_tally(counts: Mapping[CommandKind, int]) -> Tally:
    """``counts`` as a :data:`Tally` (zero counts dropped)."""
    return tuple(sorted(
        ((kind, n) for kind, n in counts.items() if n),
        key=lambda item: (item[0][0].value, item[0][1]),
    ))


def minus(after: Mapping, before: Mapping) -> Dict:
    """Per-key ``after - before`` of two counters, zero entries dropped."""
    delta = {}
    for key, n in after.items():
        n -= before.get(key, 0)
        if n:
            delta[key] = n
    return delta


class TraceRecord:
    """A trace's counters at one moment (see :meth:`CommandTrace.record`).

    ``later - earlier`` is the work done between two records.  Counters
    only ever grow, so the difference is exact whatever happened in
    between, :meth:`CommandTrace.clear` included.
    """

    __slots__ = ("tally", "charged", "credited")

    def __init__(self, tally: Dict, charged: Dict, credited: Dict):
        #: Commands the chip executed itself, by :data:`CommandKind`.
        self.tally = tally
        #: Op totals -> rows charged whole from those totals.
        self.charged = charged
        #: Op totals -> walked executions credited with those totals.
        self.credited = credited

    def __sub__(self, base: "TraceRecord") -> "TraceRecord":
        return TraceRecord(
            minus(self.tally, base.tally),
            minus(self.charged, base.charged),
            minus(self.credited, base.credited),
        )

    def commands(self) -> Dict[CommandKind, int]:
        """Every command by kind: the chip's own plus, for each charged
        row, its totals' commands (n rows cost n times the totals)."""
        counts = dict(self.tally)
        for totals, rows in self.charged.items():
            for kind, n in totals.commands:
                counts[kind] = counts.get(kind, 0) + rows * n
        return counts

    def runs(self) -> Iterator[Tuple[object, int]]:
        """Every op execution as ``(totals, count)``: charged rows, then
        walked ones."""
        yield from self.charged.items()
        yield from self.credited.items()


class CommandTrace:
    """Exact counts of the issued commands, and captures for their readers.

    The chip tallies every command it executes by :data:`CommandKind`.
    Rows whose commands are not executed one by one (a fused or sharded
    batch) are *charged* instead: one count per group of rows against the
    op totals their plan template carries
    (:class:`repro.engine.plan.OpTotals`), which the folds multiply out
    only when read.  A row walked command by command is *credited* with
    totals built from the chip's tally over its walk, so its commands
    are never counted twice.  The controller's op and primitive counts,
    the profiler and the Table 3 energy fold all read these counters
    (:meth:`record`); none of them needs the commands themselves.

    The commands are kept only while a reader asks for them: each open
    :meth:`capture` receives every command executed or charged, in issue
    order.  With no capture open, nothing here grows with the commands
    issued.

    Counters never decrease: :meth:`clear` moves the zero point that
    :meth:`counts`, :meth:`weighted_activates` and ``len()`` measure
    from, but a :class:`TraceRecord` taken before it still differences
    exactly against one taken after.
    """

    def __init__(self) -> None:
        self.tally: Dict[CommandKind, int] = {}
        self.charged: Dict[object, int] = {}
        self.credited: Dict[object, int] = {}
        #: The open captures' command lists (see :meth:`capture`).
        self._captures: List[List[IssuedCommand]] = []
        self._cleared_at = self.record()

    def append(self, issued: IssuedCommand) -> None:
        """Record one executed command."""
        kind = (issued.command.opcode, issued.wordlines_raised)
        tally = self.tally
        tally[kind] = tally.get(kind, 0) + 1
        for captured in self._captures:
            captured.append(issued)

    def extend(self, issued: Iterable[IssuedCommand]) -> None:
        """Record several executed commands."""
        for entry in issued:
            self.append(entry)

    def charge(self, totals, rows: int = 1) -> None:
        """Account ``rows`` executions that ran without executing their
        commands.

        ``totals`` are their plan template's op totals.  One counter
        bump; the commands are counted from ``totals`` when read.  While
        :attr:`capturing`, pass the rows' commands to :meth:`log` too.
        """
        charged = self.charged
        charged[totals] = charged.get(totals, 0) + rows

    def credit(self, totals) -> None:
        """Account one walked op execution, whose commands the chip
        already tallied (``totals.commands`` says which they were)."""
        credited = self.credited
        credited[totals] = credited.get(totals, 0) + 1

    @property
    def capturing(self) -> bool:
        """True while some :meth:`capture` is open."""
        return bool(self._captures)

    def log(self, issued: Iterable[IssuedCommand]) -> None:
        """Hand charged commands to every open capture.

        ``issued`` is a charged row's command stream, exactly as
        executing it would have recorded it; :meth:`charge` has already
        counted it.
        """
        for captured in self._captures:
            captured.extend(issued)

    @contextmanager
    def capture(self) -> Iterator[List[IssuedCommand]]:
        """Collect the commands issued while the block runs.

        Yields a list that receives every command executed or charged
        until the block exits, in issue order.  Captures may nest or
        overlap; each receives everything issued while it is open.
        Golden traces, trace dumps and replay, and per-entry folds
        (:func:`repro.energy.power_model.trace_energy_nj`) read a
        capture; the counts need none.
        """
        captured = self.open_capture()
        try:
            yield captured
        finally:
            self.close_capture(captured)

    def open_capture(self) -> List[IssuedCommand]:
        """Open a capture that outlives a ``with`` block (a command log
        kept across calls); returns its list.  Close it with
        :meth:`close_capture`."""
        captured: List[IssuedCommand] = []
        self._captures.append(captured)
        return captured

    def close_capture(self, captured: List[IssuedCommand]) -> None:
        """Stop filling ``captured`` (a list :meth:`open_capture` made)."""
        self._captures = [c for c in self._captures if c is not captured]

    def executed_since(
        self, mark: Mapping[CommandKind, int]
    ) -> Dict[CommandKind, int]:
        """Commands executed since ``mark``, a copy of :attr:`tally`."""
        return minus(self.tally, mark)

    def record(self) -> TraceRecord:
        """A snapshot of every counter (see :class:`TraceRecord`)."""
        return TraceRecord(
            dict(self.tally), dict(self.charged), dict(self.credited)
        )

    def command_counts(self) -> Dict[CommandKind, int]:
        """Commands since the last :meth:`clear`, by kind."""
        return (self.record() - self._cleared_at).commands()

    def clear(self) -> None:
        """Start counting from zero (open captures are their readers')."""
        self._cleared_at = self.record()

    def __len__(self) -> int:
        return sum(self.command_counts().values())

    def counts(self) -> Tuple[int, int, int, int]:
        """Return ``(activates, precharges, reads, writes)``."""
        by_opcode = dict.fromkeys(Opcode, 0)
        for (opcode, _), n in self.command_counts().items():
            by_opcode[opcode] += n
        return (
            by_opcode[Opcode.ACTIVATE],
            by_opcode[Opcode.PRECHARGE],
            by_opcode[Opcode.READ],
            by_opcode[Opcode.WRITE],
        )

    def weighted_activates(self, extra_wordline_factor: float = 0.22) -> float:
        """Activation count weighted by wordlines raised.

        An ACTIVATE that raises ``w`` wordlines counts as
        ``1 + extra_wordline_factor * (w - 1)`` activations, matching the
        paper's "activation energy increases by 22% for each additional
        wordline raised" (Section 7).
        """
        return sum(
            n * (1.0 + extra_wordline_factor * (wordlines - 1))
            for (opcode, wordlines), n in self.command_counts().items()
            if opcode is Opcode.ACTIVATE
        )
