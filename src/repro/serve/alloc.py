"""Striped row allocation for served bitvectors.

A bulk operation needs each row triple (destination and sources) in
one (bank, subarray), and a vector-wide operation is cheap when its
triples spread over every bank.  The allocator therefore hands out rows
in **slots**: one slot is one local D-group address reserved across
*every* stripe of the device.  Row *i* of any vector sits on stripe
``i % stripes`` -- the walk starts at stripe 0 for *every* vector,
because the engine pairs operands row-by-row and each (dst, src1, ...)
triple must share a (bank, subarray); a per-vector offset would
misalign triples the moment two vectors appear in one ``op``.
Multi-row vectors still fan across banks (row 0 on bank 0, row 1 on
bank 1, ...), preserving the bank-level parallelism the batch
scheduler charges in modelled time.

Consequences the serving layer relies on:

* any two vectors occupy disjoint rows (slots are exclusive), so
  requests from different tenants can never alias each other;
* operands of one ``op`` request line up stripe-by-stripe, satisfying
  the engine's same-(bank, subarray) operand rule by construction;
* a coalesced (bank, subarray) group of data rows is planned with one
  template lookup, whatever its addresses (the plan cache keys
  templates by op shape, so it stays bounded under churn -- see
  :mod:`repro.engine.plan`).

The tail of each subarray's D-group is reserved: two scratch rows for
the recovery ladder (DCC probes, degraded xor) and an optional pool of
spare rows donated to the repair map.
"""

from __future__ import annotations

import heapq
from math import ceil
from typing import List, Tuple

from repro.dram.chip import RowLocation
from repro.dram.geometry import DramGeometry
from repro.errors import ConfigError
from repro.serve.protocol import E_CAPACITY, ServeError


class StripedAllocator:
    """Slot-granular row allocator over every (bank, subarray) stripe."""

    def __init__(
        self,
        geometry: DramGeometry,
        scratch_rows: int = 2,
        spare_rows: int = 0,
    ):
        self.geometry = geometry
        #: Stripe order: bank-major so consecutive rows of one vector
        #: land in different banks (bank-parallel batches).
        self.stripes: Tuple[Tuple[int, int], ...] = tuple(
            (bank, sub)
            for sub in range(geometry.subarrays_per_bank)
            for bank in range(geometry.banks)
        )
        data_rows = geometry.subarray.data_rows
        reserved = scratch_rows + spare_rows
        usable = data_rows - reserved
        if usable < 1:
            raise ConfigError(
                f"geometry exposes {data_rows} data rows per subarray but "
                f"{reserved} are reserved (scratch + spares); nothing left "
                f"to serve"
            )
        self._usable = usable
        self._free: List[int] = list(range(usable))
        heapq.heapify(self._free)
        #: Per-subarray rows the recovery ladder may clobber.
        self.scratch_rows: Tuple[int, ...] = tuple(
            range(usable, usable + scratch_rows)
        )
        #: Per-subarray rows donated to the repair map's spare pool.
        self.spare_rows: Tuple[int, ...] = tuple(
            range(usable + scratch_rows, usable + reserved)
        )

    # ------------------------------------------------------------------
    @property
    def row_bits(self) -> int:
        return self.geometry.subarray.row_bits

    @property
    def slots_total(self) -> int:
        return self._usable

    @property
    def slots_free(self) -> int:
        return len(self._free)

    @property
    def rows_per_slot(self) -> int:
        return len(self.stripes)

    def rows_for(self, bits: int) -> int:
        """Rows a ``bits``-wide vector occupies (>= 1)."""
        if bits < 1:
            raise ServeError(E_CAPACITY, f"bits must be >= 1; got {bits}")
        return ceil(bits / self.row_bits)

    # ------------------------------------------------------------------
    def allocate(self, nrows: int) -> Tuple[RowLocation, ...]:
        """Reserve ``nrows`` rows; raises ``capacity`` when full.

        Lowest-address slots first (deterministic under a fixed request
        order); row *i* always lands on stripe ``i % stripes`` so that
        equal-width vectors line up triple-by-triple in any ``op``.
        """
        n = len(self.stripes)
        slots = ceil(nrows / n)
        if slots > len(self._free):
            raise ServeError(
                E_CAPACITY,
                f"device is out of rows: need {slots} slot(s), "
                f"{len(self._free)} free (of {self._usable})",
            )
        addresses = [heapq.heappop(self._free) for _ in range(slots)]
        rows = []
        for i in range(nrows):
            bank, sub = self.stripes[i % n]
            rows.append(RowLocation(bank, sub, addresses[i // n]))
        return tuple(rows)

    def free(self, rows: Tuple[RowLocation, ...]) -> None:
        """Return a vector's slots to the pool."""
        for address in sorted({loc.address for loc in rows}):
            heapq.heappush(self._free, address)
