"""Zero-copy accounting: the shared control block of the sharded device.

:class:`SharedAccountingBlock` is the *control-plane* sibling of
:class:`~repro.parallel.shm.SharedRowStore` (which carries the cells,
the data plane).  One ``multiprocessing.shared_memory`` segment holds
three fixed-layout regions::

    header     : int64[7]   magic, version, slots, board slots,
                            board capacity, board count, board cursor
    telemetry  : per shard slot --
                 int64[6]   pid, rows, fused, fallback, rss,
                            batches served
                 float64[2] busy ns, heartbeat ts
    plan board : directory int64[2 x board_slots] of (offset, length)
                 plus ``board_capacity`` bytes of parent-published
                 payloads (pickled shard row-lists and ops)

Why this exists: before it, every shard job round-trip pickled an
O(rows) row list out to the worker and a :class:`ShardResult` object
back, per batch.  With the block in place the parent *publishes* a
batch's row description once (:meth:`publish`), workers fetch and
memoise it by entry id, write their result counters straight into
their slot, and the per-batch message shrinks to a handful of
integers -- the dispatch-budget property the test suite pins
(``tests/parallel/test_dispatch_budget.py``).

The version in the header names this layout; attaching to a block
written with another layout raises :class:`~repro.errors.ConfigError`.

Concurrency contract (no locks needed):

* Only the **parent** publishes board entries, and only *before*
  submitting a job that names the new entry id -- the executor's job
  pipe provides the happens-before edge, so a worker never reads a
  half-written entry.
* Telemetry slots are indexed by **shard index**, shards of one
  batch are distinct, and the parent runs one batch at a time, so no
  two writers ever share a slot.
* The parent reads slots only after the batch's futures resolved.

Lifecycle mirrors :class:`~repro.parallel.shm.SharedRowStore`: the
creating process owns (and unlinks) the segment, workers only attach,
and the test suite's leak-check fixture sees these segments through the
same registry.
"""

from __future__ import annotations

import os
import secrets
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Optional

import numpy as np

from repro.errors import ConcurrencyError, ConfigError
from repro.parallel.shm import NAME_PREFIX, _LIVE, _cleanup

_MAGIC = 0x414D4249_54414343  # "AMBITACC"
#: Layout version; 2 has no per-shard trace region (1 had one).
_VERSION = 2

#: int64 header fields, in order.
(H_MAGIC, H_VERSION, H_SLOTS, H_BOARD_SLOTS, H_BOARD_CAPACITY,
 H_BOARD_COUNT, H_BOARD_CURSOR) = range(7)
_HEADER_INTS = 7

#: int64 telemetry fields per slot, in order.
F_PID, F_ROWS, F_FUSED, F_FALLBACK, F_RSS, F_BATCHES = range(6)
#: float64 telemetry fields per slot, in order.
F_BUSY_NS, F_HEARTBEAT = range(2)

_TELEM_INTS = 6
_TELEM_FLOATS = 2

#: Defaults, overridable per device.
DEFAULT_BOARD_SLOTS = 512
DEFAULT_BOARD_CAPACITY = 4 * 1024 * 1024


@dataclass(frozen=True)
class ShardTelemetry:
    """Parent-side view of one shard slot after a batch completed."""

    shard: int
    pid: int
    rows: int
    fused_rows: int
    fallback_rows: int
    rss_bytes: int
    batches_served: int
    busy_ns: int
    heartbeat_ts: float


def _region_sizes(slots: int, board_slots: int, board_capacity: int):
    header = _HEADER_INTS * 8
    telem = slots * (_TELEM_INTS * 8 + _TELEM_FLOATS * 8)
    directory = board_slots * 2 * 8
    return header, telem, directory, board_capacity


class SharedAccountingBlock:
    """Fixed-layout shared accounting for one :class:`ShardedDevice`."""

    def __init__(self, segment: shared_memory.SharedMemory, owner: bool):
        self._segment = segment
        self.owner = owner
        header = np.ndarray(_HEADER_INTS, dtype=np.int64, buffer=segment.buf)
        if int(header[H_MAGIC]) != _MAGIC:
            raise ConfigError(
                f"segment {segment.name!r} is not an accounting block"
            )
        if int(header[H_VERSION]) != _VERSION:
            raise ConfigError(
                f"accounting block {segment.name!r} has layout version "
                f"{int(header[H_VERSION])}; this build reads version "
                f"{_VERSION}"
            )
        self.slots = int(header[H_SLOTS])
        self.board_slots = int(header[H_BOARD_SLOTS])
        self.board_capacity = int(header[H_BOARD_CAPACITY])
        h, t, d, b = _region_sizes(
            self.slots, self.board_slots, self.board_capacity
        )
        if segment.size < h + t + d + b:
            raise ConfigError(
                f"segment {segment.name!r} holds {segment.size} bytes; "
                f"its own header implies {h + t + d + b}"
            )
        self._header = header
        self._telem_i = np.ndarray(
            (self.slots, _TELEM_INTS), dtype=np.int64,
            buffer=segment.buf, offset=h,
        )
        self._telem_f = np.ndarray(
            (self.slots, _TELEM_FLOATS), dtype=np.float64,
            buffer=segment.buf, offset=h + self.slots * _TELEM_INTS * 8,
        )
        self._directory = np.ndarray(
            (self.board_slots, 2), dtype=np.int64,
            buffer=segment.buf, offset=h + t,
        )
        self._board = np.ndarray(
            b, dtype=np.uint8, buffer=segment.buf, offset=h + t + d
        )
        self._finalizer = weakref.finalize(
            self, _cleanup, segment, segment.name, owner, os.getpid()
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        slots: int,
        board_slots: int = DEFAULT_BOARD_SLOTS,
        board_capacity: int = DEFAULT_BOARD_CAPACITY,
    ) -> "SharedAccountingBlock":
        """Allocate and initialise a block for ``slots`` shard workers."""
        if slots < 1:
            raise ConfigError(f"accounting block needs >= 1 slot; got {slots}")
        sizes = _region_sizes(slots, board_slots, board_capacity)
        name = f"{NAME_PREFIX}-acct-{secrets.token_hex(4)}"
        segment = shared_memory.SharedMemory(
            name=name, create=True, size=sum(sizes)
        )
        header = np.ndarray(_HEADER_INTS, dtype=np.int64, buffer=segment.buf)
        header[:] = (
            _MAGIC, _VERSION, slots, board_slots, board_capacity, 0, 0,
        )
        _LIVE.add(name)
        return cls(segment, owner=True)

    @classmethod
    def attach(cls, name: str) -> "SharedAccountingBlock":
        """Map an existing block by name (worker side; never unlinks)."""
        return cls(shared_memory.SharedMemory(name=name), owner=False)

    @property
    def name(self) -> str:
        return self._segment.name

    @property
    def nbytes(self) -> int:
        return self._segment.size

    # ------------------------------------------------------------------
    # Telemetry slots
    # ------------------------------------------------------------------
    def clear_slots(self, shards: int) -> None:
        """Zero the first ``shards`` slots before a batch dispatch."""
        self._telem_i[:shards] = 0
        self._telem_f[:shards] = 0.0

    def write_telemetry(
        self,
        shard: int,
        *,
        pid: int,
        rows: int,
        fused_rows: int,
        rss_bytes: int,
        batches_served: int,
        busy_ns: int,
        heartbeat_ts: float,
    ) -> None:
        """Worker side: record one completed shard job in its slot."""
        ints = self._telem_i[shard]
        ints[F_PID] = pid
        ints[F_ROWS] = rows
        ints[F_FUSED] = fused_rows
        ints[F_FALLBACK] = rows - fused_rows
        ints[F_RSS] = rss_bytes
        ints[F_BATCHES] = batches_served
        floats = self._telem_f[shard]
        floats[F_BUSY_NS] = busy_ns
        floats[F_HEARTBEAT] = heartbeat_ts

    def read_telemetry(self, shard: int) -> ShardTelemetry:
        """Parent side: one slot's record, after the batch resolved."""
        ints = self._telem_i[shard]
        floats = self._telem_f[shard]
        return ShardTelemetry(
            shard=shard,
            pid=int(ints[F_PID]),
            rows=int(ints[F_ROWS]),
            fused_rows=int(ints[F_FUSED]),
            fallback_rows=int(ints[F_FALLBACK]),
            rss_bytes=int(ints[F_RSS]),
            batches_served=int(ints[F_BATCHES]),
            busy_ns=int(floats[F_BUSY_NS]),
            heartbeat_ts=float(floats[F_HEARTBEAT]),
        )

    # ------------------------------------------------------------------
    # Plan board
    # ------------------------------------------------------------------
    @property
    def board_entries(self) -> int:
        """Entries published so far (also the next entry id)."""
        return int(self._header[H_BOARD_COUNT])

    @property
    def board_used(self) -> int:
        """Bytes of the board data region consumed."""
        return int(self._header[H_BOARD_CURSOR])

    def publish(self, payload: bytes) -> Optional[int]:
        """Parent side: append a payload; returns its entry id.

        Returns ``None`` when the directory or data region is full --
        the caller must then fall back to inline shipment (correct,
        just slower).  Entries are immutable and never evicted: an id,
        once handed to a worker, stays valid for the device's lifetime.
        """
        count = int(self._header[H_BOARD_COUNT])
        cursor = int(self._header[H_BOARD_CURSOR])
        if count >= self.board_slots:
            return None
        if cursor + len(payload) > self.board_capacity:
            return None
        self._board[cursor : cursor + len(payload)] = np.frombuffer(
            payload, dtype=np.uint8
        )
        self._directory[count] = (cursor, len(payload))
        # Publish order matters: the entry becomes addressable only once
        # the counters advance, and jobs naming the id are submitted
        # strictly after this method returns.
        self._header[H_BOARD_CURSOR] = cursor + len(payload)
        self._header[H_BOARD_COUNT] = count + 1
        return count

    def fetch(self, entry_id: int) -> bytes:
        """Worker side: the payload bytes of one published entry."""
        if not 0 <= entry_id < int(self._header[H_BOARD_COUNT]):
            raise ConcurrencyError(
                f"plan-board entry {entry_id} is not published "
                f"({self.board_entries} entries exist); the dispatch "
                f"protocol shipped an id before its payload"
            )
        offset, length = (int(v) for v in self._directory[entry_id])
        return bytes(self._board[offset : offset + length])

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def release(self) -> None:
        """Detach; the owning process also unlinks.  Idempotent."""
        self._header = None  # type: ignore[assignment]
        self._telem_i = None  # type: ignore[assignment]
        self._telem_f = None  # type: ignore[assignment]
        self._directory = None  # type: ignore[assignment]
        self._board = None  # type: ignore[assignment]
        self._finalizer()

    close = release

    def __enter__(self) -> "SharedAccountingBlock":
        return self

    def __exit__(self, *exc) -> None:
        self.release()
