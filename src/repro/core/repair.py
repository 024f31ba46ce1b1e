"""Spare-row repair (Section 5.5.3).

"DRAM manufacturers use a number of techniques to improve the overall
yield; the most prominent among them is using spare rows to replace
faulty DRAM rows.  Similar to some prior works, Ambit requires faulty
rows to be mapped to spare rows *within the same subarray*."

The constraint matters: RowClone-FPM and TRA only work between rows
sharing a set of sense amplifiers, so a remap that crossed subarrays
would silently break every bulk operation touching the row.  This
module implements the repair layer as a decorator over the subarray's
row decoder: a remap table rewrites faulty storage rows to spares
transparently, before wordline fan-out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.dram.cell import RowDecoder, Wordline
from repro.errors import AddressError


@dataclass
class RepairMap:
    """Faulty-row -> spare-row assignments for one subarray."""

    #: Spare storage rows available for repair, in assignment order.
    spares: Tuple[int, ...]
    _assigned: Dict[int, int] = field(default_factory=dict)

    def assign(self, faulty_row: int) -> int:
        """Map a faulty storage row to the next free spare."""
        if faulty_row in self._assigned:
            return self._assigned[faulty_row]
        if faulty_row in self.spares:
            raise AddressError(f"cannot repair spare row {faulty_row} with itself")
        used = set(self._assigned.values())
        for spare in self.spares:
            if spare not in used:
                self._assigned[faulty_row] = spare
                return spare
        raise AddressError(
            f"subarray out of spare rows (have {len(self.spares)}, "
            f"all assigned)"
        )

    def translate(self, row: int) -> int:
        """Resolve a storage row through the repair table."""
        return self._assigned.get(row, row)

    @property
    def repairs(self) -> Dict[int, int]:
        return dict(self._assigned)


class RepairedRowDecoder(RowDecoder):
    """A row decoder with post-decode spare-row remapping.

    Wraps any decoder (commodity direct or the Ambit split decoder);
    every decoded wordline's storage row passes through the repair map,
    so B-group fan-out addresses are repaired consistently with the
    single-wordline addresses of the same physical row.
    """

    def __init__(self, inner: RowDecoder, repair_map: RepairMap):
        self.inner = inner
        self.repair_map = repair_map

    def decode(self, address: int) -> Tuple[Wordline, ...]:
        """Decode, then remap every wordline through the repair table."""
        return tuple(
            Wordline(self.repair_map.translate(wl.row), negated=wl.negated)
            for wl in self.inner.decode(address)
        )

    def address_space(self) -> int:
        """Delegates to the wrapped decoder."""
        return self.inner.address_space()


class RowRepairMap:
    """Device-wide runtime spare-row remapping, consulted by the address
    path of :class:`~repro.core.controller.AmbitController`.

    :class:`RepairMap`/:class:`RepairedRowDecoder` model the *factory*
    repair flow (remap inside the decoder after manufacturing test).
    This class is the *runtime* counterpart for faults that surface in
    the field: the controller rewrites D-group addresses before
    compiling or issuing anything, so every layer below (plan cache,
    batch engine, sharded workers) sees only healthy rows.  Spares live
    in the same subarray, per Section 5.5.3 -- RowClone/TRA cannot cross
    sense-amplifier stripes.

    Unlike the factory map, :meth:`assign` on an already-remapped row
    *re*-assigns it to the next free spare (the previously assigned
    spare turned out faulty too and is abandoned).
    """

    def __init__(self) -> None:
        #: (bank, subarray) -> spare local addresses still unassigned.
        self._free: Dict[Tuple[int, int], List[int]] = {}
        #: (bank, subarray) -> {faulty local address -> spare address}.
        self._maps: Dict[Tuple[int, int], Dict[int, int]] = {}
        self._count = 0

    def add_spares(
        self, bank: int, subarray: int, addresses: Sequence[int]
    ) -> None:
        """Donate D-group addresses of one subarray as spares."""
        pool = self._free.setdefault((bank, subarray), [])
        for addr in addresses:
            if addr not in pool:
                pool.append(int(addr))

    def assign(self, bank: int, subarray: int, faulty_addr: int) -> int:
        """Map a faulty address to the next free spare of its subarray.

        Re-assigning an already-mapped address burns its current spare
        and moves to the next one; mapping a spare address itself is
        refused (callers must re-assign the original faulty row).
        """
        key = (bank, subarray)
        pool = self._free.get(key, [])
        table = self._maps.setdefault(key, {})
        if faulty_addr in table.values():
            raise AddressError(
                f"address {faulty_addr} is an in-use spare; re-assign the "
                f"original faulty row instead"
            )
        if not pool:
            raise AddressError(
                f"bank {bank} subarray {subarray} is out of spare rows"
            )
        spare = pool.pop(0)
        if faulty_addr not in table:
            self._count += 1
        table[faulty_addr] = spare
        return spare

    def translate(self, bank: int, subarray: int, address: int) -> int:
        """Resolve one local address through the repair table (identity
        when the subarray has no assignments)."""
        table = self._maps.get((bank, subarray))
        if not table:
            return address
        return table.get(address, address)

    def repairs(self, bank: int, subarray: int) -> Dict[int, int]:
        """Copy of one subarray's {faulty address -> spare} table."""
        return dict(self._maps.get((bank, subarray), {}))

    def clear(self) -> None:
        """Forget every assignment and spare (test/reset support)."""
        self._free.clear()
        self._maps.clear()
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        """True when any assignment exists -- the hot-path fast check."""
        return self._count > 0
