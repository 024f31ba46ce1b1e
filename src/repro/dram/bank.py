"""DRAM bank model: a set of subarrays with a single open row.

All access-related commands target a bank (Section 2).  A conventional
bank allows one activated subarray at a time; ACTIVATE to a different
subarray requires an intervening PRECHARGE.  The model enforces this, as
Ambit relies only on standard bank behaviour.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.dram.geometry import DramGeometry
from repro.dram.subarray import Subarray
from repro.errors import AddressError, DramProtocolError


class Bank:
    """One DRAM bank.

    Parameters
    ----------
    index:
        Bank index within the chip (for error messages / traces).
    subarrays:
        The subarray models that make up the bank.
    """

    def __init__(self, index: int, subarrays: List[Subarray]):
        if not subarrays:
            raise AddressError(f"bank {index} needs at least one subarray")
        self.index = index
        self.subarrays = subarrays
        self._open: Optional[int] = None

    # ------------------------------------------------------------------
    @property
    def open_subarray(self) -> Optional[int]:
        """Index of the activated subarray, or ``None`` when precharged."""
        return self._open

    def subarray(self, index: int) -> Subarray:
        """Access a subarray by index (bounds-checked)."""
        if not 0 <= index < len(self.subarrays):
            raise AddressError(
                f"bank {self.index}: subarray {index} out of range "
                f"[0, {len(self.subarrays)})"
            )
        return self.subarrays[index]

    # ------------------------------------------------------------------
    # Protocol operations
    # ------------------------------------------------------------------
    def activate(
        self, subarray: int, row_address: int, now_ns: float = 0.0
    ) -> Tuple[int, bool]:
        """ACTIVATE ``row_address`` in ``subarray``.

        A second ACTIVATE to the *open* subarray is the AAP overlap path;
        an ACTIVATE to a different subarray while one is open violates
        the protocol.
        """
        target = self.subarray(subarray)
        if self._open is not None and self._open != subarray:
            raise DramProtocolError(
                f"bank {self.index}: subarray {self._open} is open; "
                f"PRECHARGE before activating subarray {subarray}"
            )
        result = target.activate(row_address, now_ns)
        self._open = subarray
        return result

    def precharge(self) -> None:
        """PRECHARGE the bank (idempotent, as on real devices)."""
        if self._open is not None:
            self.subarrays[self._open].precharge()
            self._open = None

    def read_word(self, column: int) -> int:
        """READ one word from the open row."""
        return self._open_subarray_or_raise("READ").read_word(column)

    def write_word(self, column: int, value: int, now_ns: float = 0.0) -> None:
        """WRITE one word to the open row."""
        self._open_subarray_or_raise("WRITE").write_word(column, value, now_ns)

    def read_open_row(self) -> np.ndarray:
        """Read the whole open row (burst of READs)."""
        return self._open_subarray_or_raise("READ").read_open_row()

    def write_open_row(self, value: np.ndarray, now_ns: float = 0.0) -> None:
        """Overwrite the whole open row (burst of WRITEs)."""
        self._open_subarray_or_raise("WRITE").write_open_row(value, now_ns)

    def refresh(self, now_ns: float) -> None:
        """All-row refresh of the bank.

        Real refresh operates on a few rows per REFRESH command; the
        model exposes the aggregate effect, which is what the retention
        analysis needs.  Refresh requires the bank to be precharged.
        """
        if self._open is not None:
            raise DramProtocolError(
                f"bank {self.index}: cannot REFRESH with subarray "
                f"{self._open} open"
            )
        for sub in self.subarrays:
            sub.refresh_all(now_ns)

    # ------------------------------------------------------------------
    def _open_subarray_or_raise(self, what: str) -> Subarray:
        if self._open is None:
            raise DramProtocolError(
                f"bank {self.index}: {what} requires an activated row"
            )
        return self.subarrays[self._open]


def build_bank(
    index: int,
    geometry: DramGeometry,
    decoder_factory=None,
    charge_model_factory=None,
) -> Bank:
    """Construct a bank from a device geometry.

    ``decoder_factory``/``charge_model_factory`` are nullary callables
    producing a fresh decoder / analog model per subarray (or ``None``
    for commodity defaults).
    """
    subarrays = [
        Subarray(
            geometry.subarray,
            decoder=decoder_factory() if decoder_factory is not None else None,
            charge_model=(
                charge_model_factory() if charge_model_factory is not None else None
            ),
        )
        for _ in range(geometry.subarrays_per_bank)
    ]
    return Bank(index, subarrays)
