"""Subarray-aware memory driver (Section 5.4.2).

Ambit is only fast when the rows of a bulk operation sit in the *same
subarray*, so every copy is a RowClone-FPM.  The paper therefore expects
"a driver that is aware of the internal mapping of DRAM rows to
subarrays and maps the bitvectors involved in bulk bitwise operations to
the same DRAM subarray".  Large bitvectors are *interleaved*: chunk ``i``
of every co-operating bitvector lands in the same subarray, while
different chunks spread across banks for memory-level parallelism.

This module is that driver: a row allocator over the device's D-group
rows with

* **striped allocation** -- consecutive row-sized chunks of one vector
  round-robin across (bank, subarray) stripes,
* **group co-location** -- ``allocate(nbits, like=handle)`` places chunk
  ``i`` in the same subarray as ``handle``'s chunk ``i``,
* **per-subarray scratch rows** -- two reserved rows per subarray used
  to stage the odd cross-subarray operand via RowClone-PSM.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.core.device import AmbitDevice
from repro.dram.chip import RowLocation
from repro.errors import AllocationError

#: Scratch rows reserved per subarray for cross-subarray staging.
SCRATCH_ROWS_PER_SUBARRAY = 2

StripeKey = Tuple[int, int]  # (bank, subarray)


def scratch_row_location(
    device: AmbitDevice, bank: int, subarray: int, index: int = 0
) -> RowLocation:
    """The ``index``-th reserved scratch row of a subarray."""
    if not 0 <= index < SCRATCH_ROWS_PER_SUBARRAY:
        raise AllocationError(
            f"scratch index must be < {SCRATCH_ROWS_PER_SUBARRAY}; got {index}"
        )
    data_rows = device.geometry.subarray.data_rows
    return RowLocation(
        bank=bank,
        subarray=subarray,
        address=data_rows - SCRATCH_ROWS_PER_SUBARRAY + index,
    )


def stage_row(
    device: AmbitDevice,
    operand: RowLocation,
    target: RowLocation,
    scratch_index: int = 0,
) -> RowLocation:
    """Copy ``operand`` into a scratch row of ``target``'s subarray.

    Strays are copied with :meth:`~repro.core.device.AmbitDevice.psm_copy`:
    RowClone-PSM across banks, an equivalent internal-bus copy within a
    bank.  Co-located operands are returned unchanged at zero cost.
    """
    if (operand.bank, operand.subarray) == (target.bank, target.subarray):
        return operand
    scratch = scratch_row_location(device, target.bank, target.subarray, scratch_index)
    device.psm_copy(operand, scratch)
    return scratch


@dataclass
class BitVectorHandle:
    """An allocated bitvector: an ordered list of row locations.

    ``rows[i]`` holds bits ``[i*row_bits, (i+1)*row_bits)``.  The final
    row is padded with zeros when ``nbits`` is not row-aligned
    (Section 5.4.1: applications pad to row granularity).
    """

    nbits: int
    rows: List[RowLocation]

    @property
    def num_rows(self) -> int:
        return len(self.rows)


class AmbitDriver:
    """Allocates D-group rows with subarray awareness."""

    def __init__(self, device: AmbitDevice):
        self.device = device
        geo = device.geometry
        data_rows = geo.subarray.data_rows
        if data_rows <= SCRATCH_ROWS_PER_SUBARRAY:
            raise AllocationError(
                f"subarray has only {data_rows} data rows; cannot reserve "
                f"{SCRATCH_ROWS_PER_SUBARRAY} scratch rows"
            )
        #: Pool pressure diagnostics: rows currently allocated and the
        #: most rows ever simultaneously allocated (high-water mark).
        #: Surfaced by the profiler and the metrics registry.
        self.rows_in_use = 0
        self.high_water_rows = 0
        # Back-reference so observability layers reached through the
        # device (profiler, metrics, CLI) can report allocator pressure.
        device.driver = self
        metrics = getattr(device, "metrics", None)
        if metrics is not None:
            in_use = metrics.gauge(
                "ambit_allocator_rows_in_use", "D-group rows allocated now"
            )
            high_water = metrics.gauge(
                "ambit_allocator_high_water_rows",
                "Most D-group rows ever simultaneously allocated",
            )
            free_rows = metrics.gauge(
                "ambit_allocator_free_rows", "Unallocated D-group rows"
            )

            def _collect() -> None:
                in_use.set(self.rows_in_use)
                high_water.set(self.high_water_rows)
                free_rows.set(self.free_rows())

            metrics.register_collector(_collect)
        #: Free local row addresses per stripe, lowest-first.  The top
        #: SCRATCH_ROWS_PER_SUBARRAY addresses are reserved as scratch.
        #: A deque (O(1) popleft) with a mirror set (O(1) double-free
        #: detection) -- with list.pop(0) + linear membership scans the
        #: allocator dominated large runs (see
        #: ``benchmarks/test_bench_allocator.py``).
        self._free: Dict[StripeKey, Deque[int]] = {}
        self._free_sets: Dict[StripeKey, Set[int]] = {}
        self._stripes: List[StripeKey] = []
        for bank in range(geo.banks):
            for sub in range(geo.subarrays_per_bank):
                key = (bank, sub)
                self._stripes.append(key)
                addresses = range(data_rows - SCRATCH_ROWS_PER_SUBARRAY)
                self._free[key] = deque(addresses)
                self._free_sets[key] = set(addresses)
        # Interleave stripes bank-major so consecutive chunks of one
        # vector hit different banks (maximising bank-level parallelism).
        self._stripes.sort(key=lambda k: (k[1], k[0]))
        #: Rotating queue of stripes believed to have free rows.  A
        #: stripe found empty is dropped (lazily -- ``_take_from`` via
        #: ``like=`` can drain a stripe without touching the queue) and
        #: re-queued when a row is freed back to it, so round-robin
        #: allocation is amortized O(1) even when most stripes are full
        #: (the old implementation rescanned every full stripe on each
        #: allocation).
        self._live: Deque[StripeKey] = deque(self._stripes)
        self._live_set: Set[StripeKey] = set(self._stripes)

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def rows_needed(self, nbits: int) -> int:
        """DRAM rows required to hold ``nbits``."""
        if nbits <= 0:
            raise AllocationError(f"bitvector size must be positive; got {nbits}")
        row_bits = self.device.row_bits
        return -(-nbits // row_bits)  # ceil division

    def allocate(
        self, nbits: int, like: Optional[BitVectorHandle] = None
    ) -> BitVectorHandle:
        """Allocate a bitvector of ``nbits``.

        With ``like``, chunk ``i`` is placed in the same subarray as
        ``like.rows[i]`` so that later bulk operations between the two
        vectors are pure RowClone-FPM (this is the co-location contract
        of Section 5.4.2).
        """
        n = self.rows_needed(nbits)
        if like is not None and like.num_rows != n:
            raise AllocationError(
                f"co-location template has {like.num_rows} rows; need {n}"
            )
        rows: List[RowLocation] = []
        try:
            for i in range(n):
                if like is not None:
                    key = (like.rows[i].bank, like.rows[i].subarray)
                    rows.append(self._take_from(key))
                else:
                    rows.append(self._take_round_robin())
        except AllocationError:
            for loc in rows:  # roll back the partial allocation
                self._release(loc)
            raise
        return BitVectorHandle(nbits=nbits, rows=rows)

    def free(self, handle: BitVectorHandle) -> None:
        """Return a bitvector's rows to the free pool."""
        for loc in handle.rows:
            if loc.address in self._free_sets[(loc.bank, loc.subarray)]:
                raise AllocationError(f"double free of row {loc}")
            self._release(loc)
        handle.rows = []

    def _release(self, loc: RowLocation) -> None:
        key = (loc.bank, loc.subarray)
        self._free[key].append(loc.address)
        self._free_sets[key].add(loc.address)
        self.rows_in_use -= 1
        if key not in self._live_set:
            self._live_set.add(key)
            self._live.append(key)

    def scratch_row(self, bank: int, subarray: int, index: int = 0) -> RowLocation:
        """A reserved staging row in the given subarray."""
        return scratch_row_location(self.device, bank, subarray, index)

    @contextmanager
    def temp_rows(self, like: BitVectorHandle, count: int):
        """Lease ``count`` scratch vectors co-located with ``like``.

        The operation compiler's synthesized microprograms clobber
        ``CompiledOp.num_temps`` scratch rows per chunk; this context
        manager allocates them chunk-aligned with the destination (so
        every step stays RowClone-FPM) and returns them to the pool on
        exit, however the compiled batch finishes.  Contents are
        undefined on entry and garbage on exit -- compiled steps write
        every scratch row before reading it.
        """
        handles: List[BitVectorHandle] = []
        try:
            for _ in range(count):
                handles.append(self.allocate(like.nbits, like=like))
            yield handles
        finally:
            for handle in handles:
                if handle.rows:
                    self.free(handle)

    # ------------------------------------------------------------------
    # Cross-subarray staging
    # ------------------------------------------------------------------
    def stage_for(
        self, operand: RowLocation, target: RowLocation, scratch_index: int = 0
    ) -> RowLocation:
        """Make ``operand`` usable in ``target``'s subarray.

        Co-located operands are returned unchanged; strays are staged
        into a scratch row (see :func:`stage_row`).  This is the slow
        path the driver exists to avoid.
        """
        return stage_row(self.device, operand, target, scratch_index)

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def free_rows(self) -> int:
        """Total unallocated D-group rows across the device."""
        return sum(len(v) for v in self._free.values())

    def colocated(self, a: BitVectorHandle, b: BitVectorHandle) -> bool:
        """True when every chunk pair shares a subarray."""
        if a.num_rows != b.num_rows:
            return False
        return all(
            (ra.bank, ra.subarray) == (rb.bank, rb.subarray)
            for ra, rb in zip(a.rows, b.rows)
        )

    # ------------------------------------------------------------------
    def _take_from(self, key: StripeKey) -> RowLocation:
        free_list = self._free[key]
        if not free_list:
            raise AllocationError(
                f"subarray bank={key[0]} sub={key[1]} is full; cannot "
                f"co-locate (free elsewhere or use a fresh group)"
            )
        address = free_list.popleft()
        self._free_sets[key].discard(address)
        self.rows_in_use += 1
        if self.rows_in_use > self.high_water_rows:
            self.high_water_rows = self.rows_in_use
        return RowLocation(bank=key[0], subarray=key[1], address=address)

    def _take_round_robin(self) -> RowLocation:
        live = self._live
        while live:
            key = live[0]
            if not self._free[key]:
                # Stale entry (drained directly or via co-location).
                live.popleft()
                self._live_set.discard(key)
                continue
            location = self._take_from(key)
            live.rotate(-1)
            return location
        raise AllocationError("device is out of D-group rows")
