"""DRAM command vocabulary.

Ambit's key interface property (Section 5.1) is that it adds **no new
commands**: every Ambit operation is expressed with the standard
``ACTIVATE`` / ``READ`` / ``WRITE`` / ``PRECHARGE`` vocabulary, and the
chip gives reserved row addresses special meaning internally.

This module defines the command records that flow from the (Ambit-aware)
memory controller to the DRAM chip model, plus a tiny trace container
used by the timing and energy layers to account for what was issued.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Tuple


class Opcode(enum.Enum):
    """The standard DRAM command opcodes used by Ambit."""

    ACTIVATE = "ACTIVATE"
    READ = "READ"
    WRITE = "WRITE"
    PRECHARGE = "PRECHARGE"
    REFRESH = "REFRESH"


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

    Frozen: one entry may sit in many traces and in the plan cache's
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


@dataclass
class CommandTrace:
    """An append-only log of issued commands.

    The chip model appends every executed command; the timing and energy
    layers fold over the trace.  Keeping the trace separate from the chip
    keeps the functional model free of accounting concerns.
    """

    entries: List[IssuedCommand] = field(default_factory=list)

    def append(self, issued: IssuedCommand) -> None:
        """Record one executed command."""
        self.entries.append(issued)

    def extend(self, issued: Iterable[IssuedCommand]) -> None:
        """Record several executed commands."""
        self.entries.extend(issued)

    def clear(self) -> None:
        """Drop all recorded commands."""
        self.entries.clear()

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[IssuedCommand]:
        return iter(self.entries)

    def counts(self) -> Tuple[int, int, int, int]:
        """Return ``(activates, precharges, reads, writes)``."""
        acts = sum(1 for e in self.entries if e.command.opcode is Opcode.ACTIVATE)
        pres = sum(1 for e in self.entries if e.command.opcode is Opcode.PRECHARGE)
        rds = sum(1 for e in self.entries if e.command.opcode is Opcode.READ)
        wrs = sum(1 for e in self.entries if e.command.opcode is Opcode.WRITE)
        return acts, pres, rds, wrs

    def weighted_activates(self, extra_wordline_factor: float = 0.22) -> float:
        """Activation count weighted by wordlines raised.

        An ACTIVATE that raises ``w`` wordlines counts as
        ``1 + extra_wordline_factor * (w - 1)`` activations, matching the
        paper's "activation energy increases by 22% for each additional
        wordline raised" (Section 7).
        """
        total = 0.0
        for entry in self.entries:
            if entry.command.opcode is Opcode.ACTIVATE:
                total += 1.0 + extra_wordline_factor * (entry.wordlines_raised - 1)
        return total
