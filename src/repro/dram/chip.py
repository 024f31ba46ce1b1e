"""DRAM chip (rank) model: banks, command execution, and tracing.

The chip executes :class:`~repro.dram.commands.Command` records against
its banks and logs and tallies every executed command in a
:class:`~repro.dram.commands.CommandTrace`.  The timing and energy layers
are pure folds over that trace's counts, so the functional model stays
free of accounting logic.

The chip also owns the mapping from *global data-row numbers* to
``(bank, subarray, local row address)``.  Section 5.1: the D-group
addresses of all subarrays are interleaved so software sees a contiguous
physical address space; the model uses a straightforward
bank-major/subarray-major linearisation, and the subarray-aware driver
(:mod:`repro.core.driver`) is what co-locates operand vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.dram.bank import Bank, build_bank
from repro.dram.commands import Command, CommandTrace, IssuedCommand, Opcode
from repro.dram.geometry import DramGeometry
from repro.errors import AddressError, DramProtocolError


@dataclass(frozen=True)
class RowLocation:
    """A fully resolved row position inside the chip."""

    bank: int
    subarray: int
    #: Local row address inside the subarray's address space.  For data
    #: rows this equals the D-group address (which, for the commodity
    #: decoder and for Ambit's split decoder alike, coincides with the
    #: storage-row index of the data row).
    address: int


class DramChip:
    """A functional DRAM chip/rank.

    Parameters
    ----------
    geometry:
        Static device shape.
    decoder_factory:
        Nullary callable building a row decoder per subarray (``None``
        for the commodity direct decoder).  The Ambit device passes the
        split-decoder factory here.
    charge_model_factory:
        Nullary callable building an analog TRA model per subarray
        (``None`` for ideal behaviour).
    """

    def __init__(
        self,
        geometry: DramGeometry,
        decoder_factory: Optional[Callable[[], object]] = None,
        charge_model_factory: Optional[Callable[[], object]] = None,
    ):
        self.geometry = geometry
        self.banks: List[Bank] = [
            build_bank(i, geometry, decoder_factory, charge_model_factory)
            for i in range(geometry.banks)
        ]
        self.trace = CommandTrace()
        #: Model time in nanoseconds; advanced by whichever timing engine
        #: drives the chip.  Used only for retention bookkeeping.
        self.clock_ns: float = 0.0
        #: Optional observability hook (a :class:`repro.obs.tracer.Tracer`
        #: or anything exposing ``record_command(issued, clock_ns)``).
        #: Every executed command is reported through it, making
        #: :meth:`execute` the single instrumentation choke point.
        self.tracer: Optional[object] = None

    # ------------------------------------------------------------------
    # Command execution
    # ------------------------------------------------------------------
    def _record(self, issued: IssuedCommand) -> None:
        """Append to the command trace and notify the attached tracer."""
        self.trace.append(issued)
        if self.tracer is not None:
            self.tracer.record_command(issued, self.clock_ns)

    def execute(self, command: Command) -> Optional[int]:
        """Execute one DRAM command; READ returns the word read."""
        if command.opcode is Opcode.ACTIVATE:
            if command.row is None:
                raise DramProtocolError("ACTIVATE requires a row address")
            raised, onto_open = self.bank(command.bank).activate(
                command.subarray, command.row, self.clock_ns
            )
            self._record(
                IssuedCommand(command, wordlines_raised=raised, onto_open_row=onto_open)
            )
            return None
        if command.opcode is Opcode.PRECHARGE:
            self.bank(command.bank).precharge()
            self._record(IssuedCommand(command))
            return None
        if command.opcode is Opcode.READ:
            if command.column is None:
                raise DramProtocolError("READ requires a column")
            value = self.bank(command.bank).read_word(command.column)
            self._record(IssuedCommand(command))
            return value
        if command.opcode is Opcode.WRITE:
            raise DramProtocolError(
                "WRITE commands carry data; use write_word() which traces "
                "the command itself"
            )
        if command.opcode is Opcode.REFRESH:
            for bank in self.banks:
                bank.refresh(self.clock_ns)
            self._record(IssuedCommand(command))
            return None
        raise DramProtocolError(f"unknown opcode {command.opcode}")

    # Convenience wrappers --------------------------------------------------
    def activate(self, bank: int, subarray: int, row: int) -> None:
        """Issue an ACTIVATE command."""
        self.execute(Command(Opcode.ACTIVATE, bank=bank, subarray=subarray, row=row))

    def precharge(self, bank: int) -> None:
        """Issue a PRECHARGE command."""
        self.execute(Command(Opcode.PRECHARGE, bank=bank))

    def read_word(self, bank: int, column: int) -> int:
        """Issue a READ; returns the word."""
        return self.execute(
            Command(Opcode.READ, bank=bank, column=column)
        )  # type: ignore[return-value]

    def write_word(self, bank: int, column: int, value: int) -> None:
        """Issue a WRITE carrying ``value``; the payload is retained in
        the trace so dumps and replays are lossless."""
        self.bank(bank).write_word(column, value, self.clock_ns)
        self._record(
            IssuedCommand(
                Command(Opcode.WRITE, bank=bank, column=column),
                write_value=int(value),
            )
        )

    def refresh(self) -> None:
        """Issue an all-bank REFRESH."""
        self.execute(Command(Opcode.REFRESH))

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    def bank(self, index: int) -> Bank:
        """Access a bank by index (bounds-checked)."""
        if not 0 <= index < len(self.banks):
            raise AddressError(
                f"bank {index} out of range [0, {len(self.banks)})"
            )
        return self.banks[index]

    @property
    def data_rows(self) -> int:
        """Total D-group rows exposed by the chip."""
        return self.geometry.banks * self.geometry.data_rows_per_bank

    def locate_data_row(self, global_row: int) -> RowLocation:
        """Map a global data-row number to its physical location."""
        if not 0 <= global_row < self.data_rows:
            raise AddressError(
                f"data row {global_row} out of range [0, {self.data_rows})"
            )
        per_bank = self.geometry.data_rows_per_bank
        per_sub = self.geometry.subarray.data_rows
        bank, rem = divmod(global_row, per_bank)
        subarray, local = divmod(rem, per_sub)
        return RowLocation(bank=bank, subarray=subarray, address=local)

    def global_data_row(self, location: RowLocation) -> int:
        """Inverse of :meth:`locate_data_row`."""
        per_bank = self.geometry.data_rows_per_bank
        per_sub = self.geometry.subarray.data_rows
        if not 0 <= location.address < per_sub:
            raise AddressError(
                f"local data row {location.address} out of range [0, {per_sub})"
            )
        return location.bank * per_bank + location.subarray * per_sub + location.address

    # ------------------------------------------------------------------
    # Backdoor access (functional initialisation, verification)
    # ------------------------------------------------------------------
    def peek_row(self, location: RowLocation) -> np.ndarray:
        """Read a data row's contents without DRAM commands."""
        return (
            self.bank(location.bank)
            .subarray(location.subarray)
            .peek(location.address)
        )

    def poke_row(self, location: RowLocation, value: np.ndarray) -> None:
        """Write a data row's contents without DRAM commands."""
        self.bank(location.bank).subarray(location.subarray).poke(
            location.address, value, self.clock_ns
        )

    def peek_rows(self, bank: int, subarray: int, addresses) -> np.ndarray:
        """Backdoor-read several data rows of one subarray at once.

        Returns an ``(len(addresses), words_per_row)`` array; the batch
        engine's fused kernels read operands through this port.
        """
        return self.bank(bank).subarray(subarray).peek_batch(addresses)

    def peek_global(self, global_row: int) -> np.ndarray:
        """Backdoor-read a global data row."""
        return self.peek_row(self.locate_data_row(global_row))

    def poke_global(self, global_row: int, value: np.ndarray) -> None:
        """Backdoor-write a global data row."""
        self.poke_row(self.locate_data_row(global_row), value)
