"""Functional model of one DRAM subarray.

A subarray (Figure 1) is the unit at which Ambit operates: a grid of
cells sharing one row of sense amplifiers.  This model is
*command-accurate*: the only ways to change state are the DRAM protocol
operations (``activate``/``read``/``write``/``precharge``) plus an
explicit backdoor used to initialise memory images (the equivalent of a
simulator's functional access port).

Activation semantics (the part that makes Ambit work):

* A **fresh activation** (subarray precharged) charge-shares all raised
  cells with the bitline and senses the result -- the majority function
  for a triple-row activation (Section 3.1).  Sensing *restores* every
  raised cell to the sensed value (state 3 of Figure 4), which is why
  TRA overwrites its sources (issue 3 in Section 3.2).
* A **second activation** while the sense amplifiers are enabled (the
  second ACTIVATE of an AAP, Section 5.2) performs no sensing: the
  amplifiers simply overwrite the newly connected cells with the latched
  value.  This is also exactly RowClone-FPM's copy step.
* Cells behind an **n-wordline** (dual-contact cells, Section 4) see the
  negated bitline: they contribute their complement during charge
  sharing and store the complement of the latch during restoration.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.dram.cell import DirectRowDecoder, RowDecoder, Wordline
from repro.dram.geometry import SubarrayGeometry
from repro.dram.senseamp import SenseAmplifierArray
from repro.errors import AddressError, DramProtocolError


class Subarray:
    """One DRAM subarray: cells + sense amplifiers + row decoder.

    Parameters
    ----------
    geometry:
        Static shape (row count, row width).
    decoder:
        Row-address decoder.  Defaults to the commodity one-to-one
        decoder; the Ambit chip installs the split B-group decoder from
        :mod:`repro.core.addressing`.
    charge_model:
        Optional analog TRA resolution model (see
        :mod:`repro.circuit.senseamp_dynamics`).  ``None`` = ideal
        majority behaviour.
    cells / last_restore:
        Optional externally owned backing arrays (e.g. views into a
        :class:`~repro.parallel.shm.SharedRowStore` segment) of shape
        ``(storage_rows, words_per_row)`` uint64 and ``(storage_rows,)``
        float64.  When given, all cell state lives in (and is observed
        through) those buffers; by default the subarray allocates its
        own zero-filled arrays.
    """

    def __init__(
        self,
        geometry: SubarrayGeometry,
        decoder: Optional[RowDecoder] = None,
        charge_model: Optional[object] = None,
        cells: Optional[np.ndarray] = None,
        last_restore: Optional[np.ndarray] = None,
    ):
        self.geometry = geometry
        self.decoder = decoder if decoder is not None else DirectRowDecoder(
            geometry.storage_rows
        )
        self.amps = SenseAmplifierArray(geometry.words_per_row, charge_model)
        #: Packed cell contents, one uint64 row per storage row.  For a
        #: DCC row, the stored value is the one observed through the
        #: d-wordline.
        cells_shape = (geometry.storage_rows, geometry.words_per_row)
        if cells is None:
            cells = np.zeros(cells_shape, dtype=np.uint64)
        elif cells.shape != cells_shape or cells.dtype != np.uint64:
            raise AddressError(
                f"external cell buffer must be uint64 {cells_shape}; "
                f"got {cells.dtype} {cells.shape}"
            )
        self.cells = cells
        #: Wordlines currently raised (empty when precharged).
        self.raised: List[Wordline] = []
        #: Last refresh/restore time per storage row, in nanoseconds.
        #: Any activation that restores a row refreshes it (Section 3.3:
        #: "each copy operation refreshes the cells of the destination
        #: row").
        if last_restore is None:
            last_restore = np.zeros(geometry.storage_rows, dtype=np.float64)
        elif (
            last_restore.shape != (geometry.storage_rows,)
            or last_restore.dtype != np.float64
        ):
            raise AddressError(
                f"external restore buffer must be float64 "
                f"({geometry.storage_rows},); got "
                f"{last_restore.dtype} {last_restore.shape}"
            )
        self.last_restore_ns = last_restore
        #: Injected stuck-at faults: storage row -> the value its cells
        #: are stuck at.  Restores and pokes cannot change a stuck row,
        #: modelling the hard faults the manufacturing test hunts for
        #: (Section 5.5.3).
        self.stuck: Dict[int, np.ndarray] = {}
        #: Storage rows whose n-wordline contact has failed: the cell
        #: behaves like a regular cell (no negation) on both charge
        #: sharing and restore.  Only meaningful for DCC rows; modelled
        #: per storage row so the injector stays decoder-agnostic.
        self.dcc_faults: Set[int] = set()
        #: Optional variation-fault hook, called once per *fresh* triple
        #: row activation with the sensed row; returning a uint64 flip
        #: mask XORs it into the sensed value before restore (a
        #: process-variation TRA failure, Section 5.5.2 / Figure 5).
        #: Returning ``None`` leaves the activation ideal.
        self.tra_fault_hook = None

    # ------------------------------------------------------------------
    # Protocol operations
    # ------------------------------------------------------------------
    @property
    def activated(self) -> bool:
        return self.amps.enabled

    def activate(self, address: int, now_ns: float = 0.0) -> Tuple[int, bool]:
        """Execute an ACTIVATE to ``address``.

        Returns ``(wordlines_raised, onto_open_row)`` for the command
        trace.  ``onto_open_row`` is True for the overlapped second
        activation of an AAP.
        """
        wordlines = self.decoder.decode(address)
        self._check_rows(wordlines)
        if not self.amps.enabled:
            contributions = [
                (self.cells[wl.row], self._negates(wl)) for wl in wordlines
            ]
            sensed = self.amps.sense(contributions)
            if self.tra_fault_hook is not None and len(wordlines) == 3:
                mask = self.tra_fault_hook(sensed)
                if mask is not None:
                    sensed = sensed ^ np.asarray(mask, dtype=np.uint64)
                    self.amps.overwrite(sensed)
                    sensed = self.amps.latch
            self.raised = list(wordlines)
            self._restore(sensed, wordlines, now_ns)
            return len(wordlines), False
        # Second ACTIVATE of an AAP: copy the latch into the new rows.
        latch = self.amps.latch
        self._restore(latch, wordlines, now_ns)
        self.raised.extend(wl for wl in wordlines if wl not in self.raised)
        return len(wordlines), True

    def precharge(self) -> None:
        """Lower all wordlines and equalise the bitlines."""
        self.raised = []
        self.amps.precharge()

    def read_word(self, column: int) -> int:
        """READ one 64-bit word from the open row."""
        self._check_column(column)
        return int(self.amps.latch[column])

    def write_word(self, column: int, value: int, now_ns: float = 0.0) -> None:
        """WRITE one 64-bit word to the open row.

        The write drives the sense amplifiers, which in turn update every
        raised cell (polarity-aware), exactly as on a real device.
        """
        self._check_column(column)
        latch = self.amps.latch.copy()
        latch[column] = np.uint64(value & 0xFFFFFFFFFFFFFFFF)
        self.amps.overwrite(latch)
        self._restore(latch, tuple(self.raised), now_ns)

    def read_open_row(self) -> np.ndarray:
        """Read the entire open row (a burst of READs, packed uint64)."""
        return self.amps.latch.copy()

    def write_open_row(self, value: np.ndarray, now_ns: float = 0.0) -> None:
        """Overwrite the entire open row (a burst of WRITEs)."""
        if value.shape != (self.geometry.words_per_row,):
            raise DramProtocolError(
                f"row write needs shape ({self.geometry.words_per_row},); "
                f"got {value.shape}"
            )
        self.amps.overwrite(value.astype(np.uint64))
        self._restore(self.amps.latch, tuple(self.raised), now_ns)

    # ------------------------------------------------------------------
    # Backdoor (functional/initialisation) access
    # ------------------------------------------------------------------
    def peek(self, storage_row: int) -> np.ndarray:
        """Read a storage row without issuing DRAM commands (debug port)."""
        self._check_storage_row(storage_row)
        return self.cells[storage_row].copy()

    def poke(self, storage_row: int, value: np.ndarray, now_ns: float = 0.0) -> None:
        """Write a storage row without issuing DRAM commands (debug port)."""
        self._check_storage_row(storage_row)
        if value.shape != (self.geometry.words_per_row,):
            raise AddressError(
                f"poke needs shape ({self.geometry.words_per_row},); got {value.shape}"
            )
        if storage_row in self.stuck:
            self.cells[storage_row] = self.stuck[storage_row]
        else:
            self.cells[storage_row] = value.astype(np.uint64)
        self.last_restore_ns[storage_row] = now_ns

    def peek_batch(self, storage_rows) -> np.ndarray:
        """Read several storage rows at once (debug port).

        Returns an ``(len(storage_rows), words_per_row)`` uint64 copy.
        This is the read side of the batch engine's fused kernels: one
        fancy-indexed numpy gather instead of N per-row peeks.
        """
        index = self._batch_index(storage_rows)
        return self.cells[index]  # advanced indexing copies

    def poke_batch(self, storage_rows, values: np.ndarray, now_ns: float = 0.0) -> None:
        """Write several storage rows at once (debug port).

        Stuck-at rows keep their pinned value, exactly as :meth:`poke`;
        every written row counts as restored at ``now_ns``.  Duplicate
        row indices are rejected (assignment order would be ambiguous).
        """
        index = self._batch_index(storage_rows, unique=True)
        values = np.asarray(values, dtype=np.uint64)
        if values.shape != (index.size, self.geometry.words_per_row):
            raise AddressError(
                f"poke_batch needs shape ({index.size}, "
                f"{self.geometry.words_per_row}); got {values.shape}"
            )
        self.cells[index] = values
        if self.stuck:
            for row in self.stuck.keys() & index.tolist():
                self.cells[row] = self.stuck[row]
        self.last_restore_ns[index] = now_ns

    def touch_rows(self, storage_rows, now_ns: float) -> None:
        """Mark rows as restored at ``now_ns`` without changing contents.

        The batch engine uses this for the *source* rows of a fused
        operation: on the command path their activation restores (and
        thereby refreshes) them.
        """
        self.last_restore_ns[self._batch_index(storage_rows)] = now_ns

    def _batch_index(self, storage_rows, unique: bool = False) -> np.ndarray:
        index = np.asarray(storage_rows, dtype=np.intp)
        if index.ndim != 1:
            raise AddressError(
                f"batch row index must be one-dimensional; got shape {index.shape}"
            )
        if index.size:
            # Python min/max/set over the list, not numpy reductions: on
            # the 1-32 rows a call indexes, each reduction costs more
            # than the list conversion.  A set, not ``np.unique``: on
            # numpy 2 its first call imports ``numpy.ma``, a
            # resident-memory cost for every process that runs a fused
            # kernel.
            rows = index.tolist()
            if min(rows) < 0 or max(rows) >= self.geometry.storage_rows:
                raise AddressError(
                    f"batch rows out of range [0, {self.geometry.storage_rows})"
                )
            if unique and len(set(rows)) != index.size:
                raise AddressError("batch write targets duplicate rows")
        return index

    # ------------------------------------------------------------------
    # Retention bookkeeping (issue 4 of Section 3.2)
    # ------------------------------------------------------------------
    def refresh_all(self, now_ns: float) -> None:
        """Model a REFRESH sweep restoring every row at ``now_ns``."""
        self.last_restore_ns[:] = now_ns

    def stale_rows(self, now_ns: float, retention_ns: float) -> np.ndarray:
        """Indices of storage rows whose charge is older than the
        retention window (64 ms nominal)."""
        return np.nonzero(now_ns - self.last_restore_ns > retention_ns)[0]

    def age_ns(self, storage_row: int, now_ns: float) -> float:
        """Time since the given row was last restored."""
        self._check_storage_row(storage_row)
        return float(now_ns - self.last_restore_ns[storage_row])

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def inject_stuck_row(self, storage_row: int, value: np.ndarray) -> None:
        """Pin a storage row to ``value`` (a hard fault for test flows)."""
        self._check_storage_row(storage_row)
        pinned = np.asarray(value, dtype=np.uint64).copy()
        if pinned.shape != (self.geometry.words_per_row,):
            raise AddressError(
                f"stuck value needs shape ({self.geometry.words_per_row},); "
                f"got {pinned.shape}"
            )
        self.stuck[storage_row] = pinned
        self.cells[storage_row] = pinned

    def clear_stuck_row(self, storage_row: int) -> None:
        """Remove an injected fault (the row becomes writable again).

        The row keeps its pinned contents until the next write/restore;
        clearing never resurrects the pre-fault data.
        """
        self._check_storage_row(storage_row)
        self.stuck.pop(storage_row, None)

    def inject_dcc_fault(self, storage_row: int) -> None:
        """Break the n-wordline contact of a dual-contact-cell row.

        The row stops negating: charge sharing and restores through its
        n-wordline behave as if through the d-wordline (Section 4 / the
        'bitline-bar' contact failing open is read as the true value).
        """
        self._check_storage_row(storage_row)
        self.dcc_faults.add(storage_row)

    def clear_dcc_fault(self, storage_row: int) -> None:
        """Repair an injected n-wordline fault."""
        self._check_storage_row(storage_row)
        self.dcc_faults.discard(storage_row)

    @property
    def has_faults(self) -> bool:
        """True when any injected fault state could perturb operations."""
        return bool(self.stuck or self.dcc_faults or self.tra_fault_hook)

    def _negates(self, wl: Wordline) -> bool:
        return wl.negated and wl.row not in self.dcc_faults

    # ------------------------------------------------------------------
    def _restore(
        self, latch: np.ndarray, wordlines: Tuple[Wordline, ...], now_ns: float
    ) -> None:
        for wl in wordlines:
            if wl.row in self.stuck:
                self.cells[wl.row] = self.stuck[wl.row]
            else:
                self.cells[wl.row] = ~latch if self._negates(wl) else latch
            self.last_restore_ns[wl.row] = now_ns

    def _check_rows(self, wordlines: Tuple[Wordline, ...]) -> None:
        for wl in wordlines:
            self._check_storage_row(wl.row)

    def _check_storage_row(self, row: int) -> None:
        if not 0 <= row < self.geometry.storage_rows:
            raise AddressError(
                f"storage row {row} out of range [0, {self.geometry.storage_rows})"
            )

    def _check_column(self, column: int) -> None:
        if not 0 <= column < self.geometry.words_per_row:
            raise AddressError(
                f"column {column} out of range [0, {self.geometry.words_per_row})"
            )
