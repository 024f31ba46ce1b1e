"""The AAP and AP primitives (Section 5.2) and their timing (Section 5.3).

Every Ambit bulk bitwise operation is a short sequence of two
primitives:

* ``AAP (addr1, addr2)`` = ``ACTIVATE addr1; ACTIVATE addr2;
  PRECHARGE`` -- logically, copy the result of activating ``addr1``
  into the row(s) mapped to ``addr2``.
* ``AP (addr)`` = ``ACTIVATE addr; PRECHARGE`` -- used when a TRA's
  in-place result is consumed by a later step.

Timing (Section 5.3): serially, an AAP costs ``2*tRAS + tRP`` (80 ns on
DDR3-1600).  The split row decoder lets the second ACTIVATE overlap with
the first whenever the two addresses decode through *different* decoder
halves -- which is the case for every AAP in every microprogram except
nand/nor's ``AAP(B12, B5)``, whose addresses are both B-group.  The
overlapped AAP costs ``tRAS + 4ns + tRP`` (49 ns).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Iterator, Tuple, Union

from repro.core.addressing import AmbitAddressMap
from repro.dram.commands import Command, Opcode
from repro.dram.timing import TimingParameters


@dataclass(frozen=True)
class AAP:
    """ACTIVATE-ACTIVATE-PRECHARGE on two local row addresses."""

    addr1: int
    addr2: int
    #: Bus commands :meth:`commands` expands to.
    num_commands: ClassVar[int] = 3

    def commands(self, bank: int, subarray: int) -> Iterator[Command]:
        """Expand to ACTIVATE, ACTIVATE, PRECHARGE."""
        yield Command(Opcode.ACTIVATE, bank=bank, subarray=subarray, row=self.addr1)
        yield Command(Opcode.ACTIVATE, bank=bank, subarray=subarray, row=self.addr2)
        yield Command(Opcode.PRECHARGE, bank=bank, subarray=subarray)

    def latency_ns(
        self,
        timing: TimingParameters,
        amap: AmbitAddressMap,
        split_decoder: bool = True,
    ) -> float:
        """Latency of this AAP under the given decoder configuration.

        The overlap optimisation applies when the split decoder can
        decode the two addresses concurrently: one address in the
        B-group (small decoder) and the other in the C/D-group (regular
        decoder).
        """
        if split_decoder and self._overlappable(amap):
            return timing.aap_latency(split_decoder=True)
        return timing.aap_latency(split_decoder=False)

    def _overlappable(self, amap: AmbitAddressMap) -> bool:
        return amap.is_b_group(self.addr1) != amap.is_b_group(self.addr2)


@dataclass(frozen=True)
class AP:
    """ACTIVATE-PRECHARGE on one local row address."""

    addr: int
    #: Bus commands :meth:`commands` expands to.
    num_commands: ClassVar[int] = 2

    def commands(self, bank: int, subarray: int) -> Iterator[Command]:
        """Expand to ACTIVATE, PRECHARGE."""
        yield Command(Opcode.ACTIVATE, bank=bank, subarray=subarray, row=self.addr)
        yield Command(Opcode.PRECHARGE, bank=bank, subarray=subarray)

    def latency_ns(
        self,
        timing: TimingParameters,
        amap: AmbitAddressMap,
        split_decoder: bool = True,
    ) -> float:
        """AP latency: ``tRAS + tRP`` regardless of decoder configuration."""
        return timing.ap_latency()


Primitive = Union[AAP, AP]


def sequence_latency_ns(
    primitives: Tuple[Primitive, ...],
    timing: TimingParameters,
    amap: AmbitAddressMap,
    split_decoder: bool = True,
) -> float:
    """Total latency of a primitive sequence on one subarray."""
    return sum(
        p.latency_ns(timing, amap, split_decoder) for p in primitives
    )
