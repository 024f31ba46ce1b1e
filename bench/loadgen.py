"""The load client for the serve workloads: one process, few connections.

Each connection is a closed loop: it keeps ``window`` pipelined requests
in flight and sends the next one when a response arrives.  It keeps a
numpy model of its own tenants' vectors, updated in send order.  The
server runs one tenant's ops in arrival order and its reads and writes
in arrival order, and ops never touch the read/write vector, so the
model at send time is what the server must hold when it runs the
request.  Every ``read`` is checked against the last ``write`` sent
before it, and :meth:`Connection.verify` reads every vector back.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from workloads import OPS, RW_VECTOR, ServeStream

#: A response line carries at most one vector as hex.
READ_LIMIT = 16 * 1024 * 1024


class Connection:
    """One TCP connection with its tenants, model and counters."""

    def __init__(self, stream: ServeStream):
        self.stream = stream
        self.spec = stream.spec
        self.model: Dict[Tuple[str, str], np.ndarray] = {}
        self.attempted = 0
        self.mismatches = 0
        #: Failed requests by the server's error code.
        self.errors: Counter = Counter()
        #: Latency of every response while recording.
        self.recording = False
        self.latencies: List[float] = []
        self._next_id = 0
        self._pending: Dict[int, Tuple[float, Optional[Callable]]] = {}
        self._idle = asyncio.Event()
        self._idle.set()

    async def open(self, host: str, port: int) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            host, port, limit=READ_LIMIT
        )
        self._slots = asyncio.Semaphore(self.spec.window)
        self._read_task = asyncio.ensure_future(self._read_loop())

    @property
    def failed(self) -> int:
        return sum(self.errors.values())

    async def close(self) -> None:
        self._read_task.cancel()
        try:
            await self._read_task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    # ------------------------------------------------------------------
    async def _read_loop(self) -> None:
        while True:
            line = await self._reader.readline()
            if not line:
                raise ConnectionError("server closed the connection")
            done = time.perf_counter()
            response = json.loads(line)
            sent, check = self._pending.pop(response["id"])
            if not response.get("ok"):
                self.errors[str(response.get("error"))] += 1
            elif check is not None and not check(response):
                self.mismatches += 1
            if self.recording:
                self.latencies.append(done - sent)
            self._slots.release()
            if not self._pending:
                self._idle.set()

    async def send(self, body: str, check: Optional[Callable] = None) -> None:
        """Send one request once a window slot is free; ``body`` is the
        request's JSON fields after ``{"id": N,``."""
        await self._slots.acquire()
        if self._read_task.done():
            self._read_task.result()  # surfaces the connection error
        self._next_id += 1
        self._pending[self._next_id] = (time.perf_counter(), check)
        self._idle.clear()
        self.attempted += 1
        self._writer.write(f'{{"id":{self._next_id},{body}\n'.encode())
        if self._writer.transport.get_write_buffer_size() > 1 << 16:
            await self._writer.drain()

    async def wait_idle(self) -> None:
        """Wait until every request sent has its response."""
        await self._writer.drain()
        while not self._idle.is_set():
            waiter = asyncio.ensure_future(self._idle.wait())
            await asyncio.wait(
                {waiter, self._read_task}, return_when=asyncio.FIRST_COMPLETED
            )
            waiter.cancel()
            if self._read_task.done():
                self._read_task.result()

    # ------------------------------------------------------------------
    def _check_data(self, expected: np.ndarray) -> Callable:
        want = expected.tobytes().hex()
        return lambda response: response.get("data") == want

    async def setup(self) -> None:
        """Create and write every vector, then run one op and wait for
        it: the first op pays any lazy start-up (the sharded device
        starts its worker pool there)."""
        bits = self.spec.vector_bytes * 8
        for (tenant, vector), data in self.stream.initial_data().items():
            await self.send(
                f'"cmd":"create","tenant":"{tenant}","name":"{vector}",'
                f'"bits":{bits}}}'
            )
            await self.write(tenant, vector, data)
        tenant = self.stream.tenants[0]
        await self.op(tenant, "and", "v0", ("v1", "v2"))
        await self.wait_idle()

    async def write(self, tenant: str, vector: str, data: np.ndarray) -> None:
        self.model[(tenant, vector)] = data
        await self.send(
            f'"cmd":"write","tenant":"{tenant}","name":"{vector}",'
            f'"data":"{data.tobytes().hex()}"}}'
        )

    async def read(self, tenant: str, vector: str) -> None:
        await self.send(
            f'"cmd":"read","tenant":"{tenant}","name":"{vector}"}}',
            self._check_data(self.model[(tenant, vector)]),
        )

    async def op(self, tenant: str, op: str, dst: str, srcs) -> None:
        fn = OPS[op][1]
        self.model[(tenant, dst)] = fn(
            *(self.model[(tenant, src)] for src in srcs)
        )
        fields = "".join(
            f',"src{i + 1}":"{src}"' for i, src in enumerate(srcs)
        )
        await self.send(
            f'"cmd":"op","tenant":"{tenant}","op":"{op}","dst":"{dst}"'
            f'{fields}}}'
        )

    async def run_cycles(self, deadline: Optional[float]) -> None:
        """Whole cycles: one, or until ``deadline`` has passed."""
        while True:
            for tenant, item in self.stream.cycle():
                if item[0] == "op":
                    await self.op(tenant, *item[1:])
                elif item[0] == "read":
                    await self.read(tenant, RW_VECTOR)
                else:
                    await self.write(tenant, RW_VECTOR, item[1])
            if deadline is None or time.perf_counter() >= deadline:
                break
        await self.wait_idle()

    async def verify(self, corrupt: bool = False) -> None:
        """Read every vector back and compare it with the model.
        ``corrupt`` flips one model bit first, to prove the check bites."""
        if corrupt:
            key = (self.stream.tenants[0], "v0")
            self.model[key] = self.model[key].copy()
            self.model[key][0] ^= 1
        for tenant, vector in sorted(self.model):
            await self.read(tenant, vector)
        await self.wait_idle()
