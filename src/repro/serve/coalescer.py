"""The request coalescer: many small ops in, few fused batches out.

Ambit's throughput comes from amortizing fixed costs over bulk work --
row-activation sequences over huge bitvectors in the paper, plan
compilation and batch dispatch in this stack.  A service front door
inverts the shape: thousands of clients each submit *one* small
operation at a time, and executing them one-per-batch pays the full
per-batch overhead (engine planning/report, executor hand-off, dispatch
tier selection) per row triple.  The coalescer restores the bulk shape:

1. every ``op`` request lands in one bounded :class:`asyncio.Queue`
   (overflow = ``backpressure`` error, the client retries -- admission
   control at the front door rather than unbounded buffering);
2. a single drain loop pulls whatever is queued (up to
   ``max_batch_ops``) and partitions it into **waves**: groups that
   share one :class:`~repro.core.microprograms.BulkOp` and are mutually
   hazard-free;
3. each wave executes as *one* ``run_rows`` batch on the device --
   through the fault-tolerant session, the plan cache, and the sharded
   device's dispatch tiers -- and every member request's future
   resolves from the wave's outcome.

Hazard rules make coalescing safe under arbitrary concurrency: queue
order is the semantic order, and a request may only be placed in (or
reordered ahead into) a wave if its rows do not conflict with any
*earlier-queued* request left behind in a later wave.  Concretely, for
each request we find the last wave it conflicts with (destination
overlapping any rows, or any rows overlapping a destination) and join
the first same-op wave strictly after it.  Requests over disjoint
vectors -- the common case, since the allocator gives every vector
exclusive slots -- commute freely, so a mixed drain of nine op kinds
still forms nine big waves instead of a wave per run of equal ops.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.microprograms import BulkOp
from repro.dram.chip import RowLocation
from repro.serve.protocol import E_BACKPRESSURE, ServeError

#: Request-count buckets of one executed wave.
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0,
                      256.0, 512.0, 1024.0)

RowKey = Tuple[int, int, int]


def _keys(rows: Sequence[RowLocation]) -> FrozenSet[RowKey]:
    return frozenset((r.bank, r.subarray, r.address) for r in rows)


@dataclass
class OpRequest:
    """One client operation waiting to be batched."""

    op: BulkOp
    tenant: str
    dst: Tuple[RowLocation, ...]
    srcs: Tuple[Tuple[RowLocation, ...], ...]
    future: "asyncio.Future[Any]"
    #: Request-span checkpoints stamped as the request crosses threads
    #: (coalescer: ``submitted``/``drained``; wave runner:
    #: ``device_start``/``device_end``, ``attempts``, ``wave``).  The
    #: awaiting coroutine adopts this after the future resolves, so the
    #: span context itself never crosses a thread.
    timing: Dict[str, Any] = field(default_factory=dict)
    dst_keys: FrozenSet[RowKey] = field(init=False)
    all_keys: FrozenSet[RowKey] = field(init=False)

    def __post_init__(self) -> None:
        self.dst_keys = _keys(self.dst)
        self.all_keys = self.dst_keys.union(
            *(_keys(src) for src in self.srcs)
        )


@dataclass
class Wave:
    """One executable batch: same op, mutually hazard-free requests."""

    op: BulkOp
    requests: List[OpRequest] = field(default_factory=list)
    dst_keys: FrozenSet[RowKey] = frozenset()
    all_keys: FrozenSet[RowKey] = frozenset()

    def conflicts(self, request: OpRequest) -> bool:
        """True when executing ``request`` with this wave would reorder
        a genuine data dependency (RAW, WAR, or WAW)."""
        return bool(
            request.all_keys & self.dst_keys
            or request.dst_keys & self.all_keys
        )

    def add(self, request: OpRequest) -> None:
        """Fuse ``request`` into this wave, widening its row sets."""
        self.requests.append(request)
        self.dst_keys |= request.dst_keys
        self.all_keys |= request.all_keys

    def operands(
        self,
    ) -> Tuple[List[RowLocation], List[Optional[List[RowLocation]]]]:
        """Concatenated (dst, [src1, src2, src3]) row lists of the wave."""
        dst: List[RowLocation] = []
        arity = self.op.arity
        srcs: List[List[RowLocation]] = [[] for _ in range(arity)]
        for request in self.requests:
            dst.extend(request.dst)
            for i in range(arity):
                srcs[i].extend(request.srcs[i])
        padded: List[Optional[List[RowLocation]]] = [None, None, None]
        for i in range(arity):
            padded[i] = srcs[i]
        return dst, padded


def plan_waves(requests: Sequence[OpRequest]) -> List[Wave]:
    """Partition queued requests into hazard-safe same-op waves.

    Queue order is program order: request *r* may join a wave only if
    every earlier-queued request whose rows conflict with *r* executes
    in a strictly earlier wave.  Requests that conflict with nothing
    (disjoint vectors) sort freely into the first wave of their op.
    """
    waves: List[Wave] = []
    for request in requests:
        barrier = -1
        for idx, wave in enumerate(waves):
            if wave.conflicts(request):
                barrier = idx
        placed = None
        for idx in range(barrier + 1, len(waves)):
            if waves[idx].op is request.op:
                placed = waves[idx]
                break
        if placed is None:
            placed = Wave(op=request.op)
            waves.append(placed)
        placed.add(request)
    return waves


#: Runner contract: executes waves (on the device thread) and returns
#: one ``(request, error-or-None)`` outcome per member request.
WaveRunner = Callable[
    [List[Wave]], List[Tuple[OpRequest, Optional[Exception]]]
]


class Coalescer:
    """Bounded admission queue + drain loop + wave planner."""

    def __init__(
        self,
        runner: WaveRunner,
        executor,
        metrics=None,
        max_queue: int = 4096,
        max_batch_ops: int = 512,
    ):
        self.runner = runner
        self.executor = executor
        self.max_batch_ops = max(1, max_batch_ops)
        self._queue: "asyncio.Queue[OpRequest]" = asyncio.Queue(
            maxsize=max_queue
        )
        self._task: Optional["asyncio.Task[None]"] = None
        self._m_batches = self._m_coalesced = None
        self._m_backpressure = self._m_sizes = None
        if metrics is not None:
            self._m_batches = metrics.counter(
                "ambit_serve_batches_total",
                "Device batches dispatched by the serving layer",
            )
            self._m_coalesced = metrics.counter(
                "ambit_serve_coalesced_batches_total",
                "Dispatched batches that fused >= 2 client requests",
            )
            self._m_backpressure = metrics.counter(
                "ambit_serve_backpressure_total",
                "Op requests rejected because the admission queue was full",
            )
            self._m_sizes = metrics.histogram(
                "ambit_serve_batch_requests",
                "Client requests fused into one dispatched batch",
                buckets=BATCH_SIZE_BUCKETS,
            )
            depth = metrics.gauge(
                "ambit_serve_queue_depth", "Ops waiting in the admission queue"
            )
            metrics.register_collector(
                lambda: depth.set(self._queue.qsize())
            )

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the drain loop on the running event loop."""
        if self._task is None:
            self._task = asyncio.get_event_loop().create_task(self._drain())

    async def close(self) -> None:
        """Stop the drain loop; queued requests get an internal error."""
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

    # ------------------------------------------------------------------
    def submit(self, request: OpRequest) -> None:
        """Enqueue or reject-with-backpressure (never blocks)."""
        request.timing["submitted"] = time.perf_counter_ns()
        try:
            self._queue.put_nowait(request)
        except asyncio.QueueFull:
            if self._m_backpressure is not None:
                self._m_backpressure.inc()
            raise ServeError(
                E_BACKPRESSURE,
                "admission queue is full; retry after a backoff",
            ) from None

    # ------------------------------------------------------------------
    async def _drain(self) -> None:
        loop = asyncio.get_event_loop()
        while True:
            first = await self._queue.get()
            batch = [first]
            while len(batch) < self.max_batch_ops:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            drained = time.perf_counter_ns()
            for request in batch:
                request.timing["drained"] = drained
            waves = plan_waves(batch)
            if self._m_batches is not None:
                for wave in waves:
                    self._m_batches.inc()
                    self._m_sizes.observe(len(wave.requests))
                    if len(wave.requests) >= 2:
                        self._m_coalesced.inc()
            try:
                outcomes = await loop.run_in_executor(
                    self.executor, self.runner, waves
                )
            except Exception as exc:  # runner itself blew up
                outcomes = [
                    (request, exc)
                    for wave in waves
                    for request in wave.requests
                ]
            for request, error in outcomes:
                if request.future.done():
                    continue  # client went away mid-flight
                if error is None:
                    request.future.set_result(None)
                else:
                    request.future.set_exception(error)
