"""Command-trace serialisation and replay (the Ramulator-style frontend).

DRAM-simulator releases live or die by trace interoperability: you want
to dump what a device executed, diff it against a reference, and replay
it onto a fresh device.  This module provides a simple line format::

    ACT <bank> <subarray> <row>
    PRE <bank>
    RD  <bank> <column>
    WR  <bank> <column> <hex-value>
    REF

plus :func:`dump_trace` (from captured commands, see
:meth:`repro.dram.commands.CommandTrace.capture`),
:func:`parse_trace`, and :func:`replay_trace` (drive any chip --
commodity or Ambit -- from a trace).  Replaying an Ambit microprogram's
dump onto a fresh Ambit device reproduces the original computation
bit-for-bit, which the tests verify.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.dram.chip import DramChip
from repro.dram.commands import Command, IssuedCommand, Opcode
from repro.errors import DramProtocolError

#: Mnemonics used in the text format.
_MNEMONIC = {
    Opcode.ACTIVATE: "ACT",
    Opcode.PRECHARGE: "PRE",
    Opcode.READ: "RD",
    Opcode.WRITE: "WR",
    Opcode.REFRESH: "REF",
}
_BY_MNEMONIC = {v: k for k, v in _MNEMONIC.items()}


@dataclass(frozen=True)
class TraceEntry:
    """One parsed trace line."""

    command: Command
    #: Data payload for WR lines (None otherwise).  The functional WRITE
    #: path carries its word out of band, so dumps record it explicitly.
    write_value: Optional[int] = None

    def format(self) -> str:
        """Render the entry as one trace line."""
        cmd = self.command
        if cmd.opcode is Opcode.ACTIVATE:
            return f"ACT {cmd.bank} {cmd.subarray} {cmd.row}"
        if cmd.opcode is Opcode.PRECHARGE:
            return f"PRE {cmd.bank}"
        if cmd.opcode is Opcode.READ:
            return f"RD {cmd.bank} {cmd.column}"
        if cmd.opcode is Opcode.WRITE:
            value = 0 if self.write_value is None else self.write_value
            return f"WR {cmd.bank} {cmd.column} {value:#x}"
        return "REF"


def dump_trace(issued: Iterable[IssuedCommand]) -> str:
    """Serialise an executed-command log to the text format.

    Equivalent to :func:`dump_trace_with_data`: WRITE payloads are
    retained in :class:`IssuedCommand` by the functional write path, so
    dumps are lossless.  (The alias survives for callers that predate
    payload threading.)
    """
    return dump_trace_with_data(issued)


def dump_trace_with_data(issued: Iterable[IssuedCommand]) -> str:
    """Serialise an executed-command log, including WRITE payloads.

    WR lines carry the 64-bit word recorded at execution time
    (:meth:`repro.dram.chip.DramChip.write_word`), so
    ``replay_trace(parse_trace(dump_trace_with_data(...)))`` reproduces
    the original device state bit-for-bit.  An :class:`IssuedCommand`
    synthesised without a payload dumps as ``0``.
    """
    return "\n".join(
        TraceEntry(e.command, write_value=e.write_value).format()
        for e in issued
    )


def parse_trace(text: str) -> List[TraceEntry]:
    """Parse the text format; blank lines and ``#`` comments are skipped."""
    entries: List[TraceEntry] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        mnemonic = fields[0].upper()
        try:
            opcode = _BY_MNEMONIC[mnemonic]
        except KeyError:
            raise DramProtocolError(
                f"trace line {lineno}: unknown mnemonic {mnemonic!r}"
            ) from None
        try:
            if opcode is Opcode.ACTIVATE:
                bank, subarray, row = (int(f, 0) for f in fields[1:4])
                entries.append(
                    TraceEntry(Command(opcode, bank=bank, subarray=subarray, row=row))
                )
            elif opcode is Opcode.PRECHARGE:
                entries.append(TraceEntry(Command(opcode, bank=int(fields[1], 0))))
            elif opcode is Opcode.READ:
                bank, column = int(fields[1], 0), int(fields[2], 0)
                entries.append(
                    TraceEntry(Command(opcode, bank=bank, column=column))
                )
            elif opcode is Opcode.WRITE:
                bank, column = int(fields[1], 0), int(fields[2], 0)
                value = int(fields[3], 0)
                entries.append(
                    TraceEntry(
                        Command(opcode, bank=bank, column=column),
                        write_value=value,
                    )
                )
            else:  # REFRESH
                entries.append(TraceEntry(Command(opcode)))
        except (IndexError, ValueError):
            raise DramProtocolError(
                f"trace line {lineno}: malformed operands in {line!r}"
            ) from None
    return entries


def replay_trace(chip: DramChip, entries: Iterable[TraceEntry]) -> List[int]:
    """Execute a parsed trace against a chip; returns the RD results."""
    reads: List[int] = []
    for entry in entries:
        cmd = entry.command
        if cmd.opcode is Opcode.WRITE:
            # An explicit None check: a genuine 0x0 payload must be
            # written as zero *because it was recorded*, not because the
            # payload was missing (``entry.write_value or 0`` conflated
            # the two).
            value = entry.write_value if entry.write_value is not None else 0
            chip.write_word(cmd.bank, cmd.column, value)
        elif cmd.opcode is Opcode.READ:
            reads.append(chip.read_word(cmd.bank, cmd.column))
        else:
            chip.execute(cmd)
    return reads


def roundtrip(issued: Iterable[IssuedCommand]) -> List[TraceEntry]:
    """Dump captured commands and re-parse them.

    ``issued`` is what a capture collected::

        with chip.trace.capture() as issued:
            ...
        entries = roundtrip(issued)
    """
    return parse_trace(dump_trace(issued))
