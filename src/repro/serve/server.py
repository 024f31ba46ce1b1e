"""The async bulk-bitwise service: NDJSON front door over the engine.

:class:`BulkBitwiseServer` glues every prior layer of the stack into a
network-facing accelerator service:

* the **protocol** (:mod:`repro.serve.protocol`) frames requests;
* the **allocator** (:mod:`repro.serve.alloc`) places named vectors;
* the **tenant registry** (:mod:`repro.serve.tenants`) enforces quotas
  and admission;
* the **coalescer** (:mod:`repro.serve.coalescer`) fuses concurrent
  ``op`` requests into hazard-safe waves;
* every device touch goes through one
  :class:`~repro.faults.recover.FaultTolerantSession` on a
  **single-thread executor** -- the event loop never blocks on DRAM
  work, and the device never sees two threads;
* optional seeded fault injection
  (:class:`~repro.faults.injector.FaultInjector`) runs before each
  wave, so the recovery ladder is exercised under live traffic;
* ``ambit_serve_*`` metric families land in the device's
  :class:`~repro.obs.metrics.MetricsRegistry`, optionally exposed on a
  :class:`~repro.obs.metrics.MetricsServer` for ``repro top --url``.

Concurrency model: asyncio handles sockets and framing; each request
line becomes a task, so one connection can pipeline thousands of
requests.  ``op`` requests await a future resolved by the coalescer's
drain loop; everything else runs as one executor call.  The executor
has exactly one thread, which serializes all device access without any
locking in the engine.
"""

from __future__ import annotations

import asyncio
import contextvars
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.core.microprograms import BulkOp
from repro.dram.geometry import DramGeometry, small_test_geometry
from repro.errors import ConfigError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.recover import FaultTolerantSession, RecoveryPolicy
from repro.log import get_logger
from repro.obs.spans import FlightRecorder, RequestSpanCtx, SpanStore
from repro.serve.alloc import StripedAllocator
from repro.serve.coalescer import Coalescer, OpRequest, Wave
from repro.serve.protocol import (
    COMMANDS,
    E_BACKPRESSURE,
    E_FAULT,
    E_INTERNAL,
    E_NO_TRACE,
    E_PROTOCOL,
    E_SHAPE,
    E_UNKNOWN,
    MAX_LINE_BYTES,
    ServeError,
    bytes_to_rows,
    decode_frame,
    encode_frame,
    error_response,
    ok_response,
    payload_bytes,
    rows_to_hex,
)
from repro.serve.tenants import TenantQuota, TenantRegistry

log = get_logger("serve")

#: The in-flight request's span context.  Set by :meth:`_serve_line`
#: (each request line is its own asyncio task, so the var is naturally
#: request-scoped) and read by command handlers and the device wrapper.
_REQUEST_CTX: "contextvars.ContextVar[Optional[RequestSpanCtx]]" = (
    contextvars.ContextVar("repro_request_ctx", default=None)
)

#: Request-latency buckets: 100 us .. 10 s (the default device-latency
#: buckets top out at ~0.4 ms -- far too tight for network round trips).
SERVE_LATENCY_BUCKETS_NS: Tuple[float, ...] = tuple(
    1e5 * (4.0 ** i) for i in range(12)
)

_OPS_BY_NAME = {op.value: op for op in BulkOp}
_SRC_FIELDS = ("src1", "src2", "src3")


@dataclass(frozen=True)
class ServeConfig:
    """Everything one server instance needs, CLI-mappable."""

    host: str = "127.0.0.1"
    port: int = 0                    # 0 = ephemeral, report after bind
    banks: int = 4
    subarrays: int = 1
    rows: int = 512
    row_bytes: int = 512
    jobs: int = 1                    # >= 2 -> ShardedDevice, auto-tuned tier
    max_queue: int = 4096
    max_batch_ops: int = 512
    max_vectors: int = 16
    max_rows: int = 512
    max_inflight: int = 64
    fault_rate: float = 0.0
    fault_ops: int = 512             # fault-plan horizon, in waves
    recovery: bool = True
    spare_rows: int = 2
    seed: int = 0
    metrics_port: Optional[int] = None
    trace: bool = True               # request spans (socket -> silicon)
    max_spans: int = 512             # span-ring capacity
    slo_ms: float = 0.0              # > 0: flight-recorder latency trigger
    flight_path: Optional[str] = None  # JSONL dump target (None = off)

    def validate(self) -> None:
        """Raise :class:`~repro.errors.ConfigError` on bad settings."""
        if self.banks < 1 or self.subarrays < 1:
            raise ConfigError("banks and subarrays must be >= 1")
        if self.rows < 22:
            raise ConfigError(
                f"rows must be >= 22 (18 reserved + scratch + data); "
                f"got {self.rows}"
            )
        if self.row_bytes < 8 or self.row_bytes % 8:
            raise ConfigError("row_bytes must be a positive multiple of 8")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1; got {self.jobs}")
        if self.max_queue < 1 or self.max_batch_ops < 1:
            raise ConfigError("max_queue and max_batch_ops must be >= 1")
        if not 0.0 <= self.fault_rate <= 1.0:
            raise ConfigError("fault_rate must be in [0, 1]")
        if self.fault_ops < 1:
            raise ConfigError("fault_ops must be >= 1")
        if self.spare_rows < 0:
            raise ConfigError("spare_rows must be >= 0")
        if self.max_spans < 1:
            raise ConfigError("max_spans must be >= 1")
        if self.slo_ms < 0:
            raise ConfigError("slo_ms must be >= 0")

    def geometry(self) -> DramGeometry:
        """The device geometry this configuration describes."""
        return small_test_geometry(
            rows=self.rows,
            row_bytes=self.row_bytes,
            banks=self.banks,
            subarrays_per_bank=self.subarrays,
        )

    def quota(self) -> TenantQuota:
        """The per-tenant quota this configuration describes."""
        return TenantQuota(
            max_vectors=self.max_vectors,
            max_rows=self.max_rows,
            max_inflight=self.max_inflight,
        )


class BulkBitwiseServer:
    """One listening service over one (possibly sharded) device."""

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config = config if config is not None else ServeConfig()
        config.validate()
        geometry = config.geometry()
        if config.jobs >= 2:
            from repro.parallel.device import ShardedDevice

            # The tuner keeps a wave in process unless sharding it is
            # predicted to win (docs/SCALING.md).
            self.device = ShardedDevice(
                geometry=geometry, max_workers=config.jobs, dispatch="auto"
            )
        else:
            from repro.core.device import AmbitDevice

            self.device = AmbitDevice(geometry=geometry)
        self.metrics = self.device.metrics
        self.allocator = StripedAllocator(
            geometry, scratch_rows=2, spare_rows=config.spare_rows
        )
        self.session = FaultTolerantSession(
            self.device, RecoveryPolicy(enabled=config.recovery)
        )
        for bank, sub in self.allocator.stripes:
            self.session.set_scratch(bank, sub, self.allocator.scratch_rows)
            if self.allocator.spare_rows:
                self.session.add_spares(bank, sub, self.allocator.spare_rows)
        self.tenants = TenantRegistry(
            self.allocator, config.quota(), self.metrics
        )
        self.executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="ambit-serve"
        )
        self.coalescer = Coalescer(
            runner=self._run_waves,
            executor=self.executor,
            metrics=self.metrics,
            max_queue=config.max_queue,
            max_batch_ops=config.max_batch_ops,
        )
        self.injector: Optional[FaultInjector] = None
        if config.fault_rate > 0.0:
            # Target the first stripe only: the allocator places row 0
            # of *every* vector there, so each drawn fault lands in
            # rows live traffic will actually touch (a fault on a bank
            # no vector reaches validates nothing).
            plan = FaultPlan.generate(
                ops=config.fault_ops,
                seed=config.seed,
                fault_rate=config.fault_rate,
                rows={
                    self.allocator.stripes[0]:
                        list(range(self.allocator.slots_total))
                },
                row_bits=geometry.subarray.row_bits,
            )
            self.injector = FaultInjector(self.device, plan, self.metrics)
        self._wave_index = 0
        self._m_requests = self.metrics.counter(
            "ambit_serve_requests_total",
            "Service requests handled, by command and outcome",
            labels=("cmd", "status"),
        )
        self._m_latency = self.metrics.histogram(
            "ambit_serve_request_latency_ns",
            "End-to-end request latency (decode to response write)",
            labels=("cmd",),
            buckets=SERVE_LATENCY_BUCKETS_NS,
        )
        self._m_errors = self.metrics.counter(
            "ambit_serve_errors_total",
            "Requests that returned a typed error, by wire code",
            labels=("code",),
        )
        self.spans: Optional[SpanStore] = None
        self.recorder: Optional[FlightRecorder] = None
        if config.trace:
            self.spans = SpanStore(capacity=config.max_spans)
            self.recorder = FlightRecorder(
                self.spans,
                path=config.flight_path,
                slo_ms=config.slo_ms,
                trigger_codes=(E_FAULT, E_BACKPRESSURE),
            )
        self._server: Optional[asyncio.AbstractServer] = None
        self.metrics_server = None
        if config.metrics_port is not None:
            from repro.obs.metrics import MetricsServer

            self.metrics_server = MetricsServer(
                self.metrics, port=config.metrics_port
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "BulkBitwiseServer":
        """Bind the listening socket and spawn the drain loop."""
        self._server = await asyncio.start_server(
            self._on_client,
            host=self.config.host,
            port=self.config.port,
            limit=MAX_LINE_BYTES,
        )
        self.coalescer.start()
        return self

    @property
    def port(self) -> int:
        """The bound TCP port (valid after :meth:`start`)."""
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Serve until cancelled (the ``repro serve`` foreground)."""
        assert self._server is not None, "server not started"
        await self._server.serve_forever()

    async def close(self) -> None:
        """Stop listening, stop the coalescer, release the device."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.coalescer.close()
        self.executor.shutdown(wait=True)
        if self.metrics_server is not None:
            self.metrics_server.close()
        self.device.close()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _on_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        tasks: set = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    async with write_lock:
                        writer.write(encode_frame(error_response(
                            None, E_PROTOCOL,
                            f"line exceeds {MAX_LINE_BYTES} bytes",
                        )))
                        await writer.drain()
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.ensure_future(
                    self._serve_line(line, writer, write_lock)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
        finally:
            for task in tasks:
                task.cancel()
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass  # connection (or the whole server) is going down

    async def _serve_line(
        self,
        line: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        started = time.perf_counter_ns()
        request_id = None
        cmd = "invalid"
        ctx: Optional[RequestSpanCtx] = None
        token = None
        want_timing = False
        try:
            request = decode_frame(line)
            request_id = request.get("id")
            want_timing = request.get("detail") == "timing"
            raw_cmd = request.get("cmd")
            if raw_cmd in COMMANDS:
                cmd = raw_cmd
            else:
                raise ServeError(
                    E_UNKNOWN, f"unknown command {raw_cmd!r}; "
                    f"expected one of {', '.join(COMMANDS)}"
                )
            if self.spans is not None:
                tenant = request.get("tenant")
                op = request.get("op")
                ctx = RequestSpanCtx(
                    cmd=cmd,
                    tenant=tenant if isinstance(tenant, str) else None,
                    op=op if isinstance(op, str) else None,
                    start_ns=started,
                )
                token = _REQUEST_CTX.set(ctx)
            response = await getattr(self, f"_cmd_{cmd}")(request)
            status = "ok"
        except ServeError as exc:
            response = error_response(request_id, exc.code, exc.message)
            status = exc.code
        except Exception as exc:  # engine/device errors -> internal
            log.warning(
                "request failed with %s: %s", type(exc).__name__, exc,
                extra={"ctx_cmd": cmd,
                       "ctx_trace": ctx.trace if ctx else None},
            )
            response = error_response(
                request_id, E_INTERNAL, f"{type(exc).__name__}: {exc}"
            )
            status = E_INTERNAL
        finally:
            if token is not None:
                _REQUEST_CTX.reset(token)
        if request_id is not None:
            response["id"] = request_id
        if status != "ok":
            self._m_errors.labels(code=status).inc()
        if ctx is not None:
            ctx.mark("result")
            if want_timing:
                # The serialize tail is still ahead of us, so this is
                # the breakdown *so far*; the stored trace (finished
                # after the socket write) is the authoritative one.
                response["timing"] = {
                    "trace": ctx.trace,
                    "stages_ns": ctx.breakdown(time.perf_counter_ns()),
                }
        self._m_requests.labels(cmd=cmd, status=status).inc()
        self._m_latency.labels(cmd=cmd).observe(
            time.perf_counter_ns() - started,
            exemplar=ctx.trace if ctx is not None else None,
        )
        try:
            async with write_lock:
                writer.write(encode_frame(response))
                await writer.drain()
        except (ConnectionError, OSError):
            log.debug("client went away before the response was written",
                      extra={"ctx_cmd": cmd})
        if ctx is not None and self.spans is not None:
            trace = self.spans.add(ctx.finish(status))
            if self.recorder is not None:
                reason = self.recorder.observe(trace)
                if reason is not None:
                    log.warning(
                        "flight recorder triggered",
                        extra={"ctx_reason": reason,
                               "ctx_trace": trace.trace,
                               "ctx_status": status,
                               "ctx_wall_ms": round(trace.wall_ns / 1e6, 3)},
                    )

    # ------------------------------------------------------------------
    # Request helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _tenant_of(request: Dict[str, Any]) -> str:
        tenant = request.get("tenant")
        if not isinstance(tenant, str) or not tenant:
            raise ServeError(
                E_PROTOCOL, "request needs a non-empty string 'tenant'"
            )
        return tenant

    @staticmethod
    def _name_of(request: Dict[str, Any], field: str = "name") -> str:
        name = request.get(field)
        if not isinstance(name, str) or not name:
            raise ServeError(
                E_PROTOCOL, f"request needs a non-empty string {field!r}"
            )
        return name

    async def _on_device(self, fn, *args):
        """Run a device-touching callable on the single device thread.

        When the request is traced, the executor-side wrapper stamps
        device occupancy and the recovery attempts it incurred into a
        local dict; the awaiting coroutine adopts them afterwards, so
        the span context itself never leaves the event loop.
        """
        loop = asyncio.get_event_loop()
        ctx = _REQUEST_CTX.get()
        if ctx is None:
            return await loop.run_in_executor(self.executor, fn, *args)
        timing: Dict[str, Any] = {}

        def timed():
            timing["device_start"] = time.perf_counter_ns()
            attempts_mark = self.session.attempts_total
            try:
                return fn(*args)
            finally:
                timing["device_end"] = time.perf_counter_ns()
                timing["attempts"] = [
                    attempt.to_dict()
                    for attempt in self.session.attempts_since(attempts_mark)
                ]

        try:
            return await loop.run_in_executor(self.executor, timed)
        finally:
            ctx.adopt(timing)

    # ------------------------------------------------------------------
    # Commands
    # ------------------------------------------------------------------
    async def _cmd_ping(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return ok_response(pong=True)

    async def _cmd_create(self, request: Dict[str, Any]) -> Dict[str, Any]:
        tenant = self._tenant_of(request)
        name = self._name_of(request)
        bits = request.get("bits")
        if not isinstance(bits, int) or isinstance(bits, bool) or bits < 1:
            raise ServeError(E_PROTOCOL, "'bits' must be a positive integer")
        handle = self.tenants.create_vector(tenant, name, bits)
        words = self.device.geometry.subarray.words_per_row
        zeros = np.zeros(words, dtype=np.uint64)

        def _zero_fill() -> None:
            for loc in handle.rows:
                self.session.write_row(loc, zeros)

        await self._on_device(_zero_fill)
        return ok_response(name=name, bits=bits, rows=len(handle.rows))

    async def _cmd_write(self, request: Dict[str, Any]) -> Dict[str, Any]:
        tenant = self._tenant_of(request)
        name = self._name_of(request)
        handle = self.tenants.lookup(tenant, name)
        raw = payload_bytes(request.get("data"), handle.bits)
        images = bytes_to_rows(
            raw, len(handle.rows), self.device.geometry.subarray.row_bytes
        )

        def _store() -> None:
            for loc, image in zip(handle.rows, images):
                self.session.write_row(loc, image)

        await self._on_device(_store)
        return ok_response(name=name, bits=handle.bits)

    async def _cmd_read(self, request: Dict[str, Any]) -> Dict[str, Any]:
        tenant = self._tenant_of(request)
        name = self._name_of(request)
        handle = self.tenants.lookup(tenant, name)

        def _load():
            return [self.session.read_row(loc) for loc in handle.rows]

        images = await self._on_device(_load)
        return ok_response(
            name=name,
            bits=handle.bits,
            data=rows_to_hex(images, handle.bits),
        )

    async def _cmd_op(self, request: Dict[str, Any]) -> Dict[str, Any]:
        tenant = self._tenant_of(request)
        op_name = request.get("op")
        op = _OPS_BY_NAME.get(op_name)
        if op is None:
            raise ServeError(
                E_PROTOCOL, f"unknown op {op_name!r}; expected one of "
                f"{', '.join(sorted(_OPS_BY_NAME))}"
            )
        dst = self.tenants.lookup(tenant, self._name_of(request, "dst"))
        srcs = []
        for field in _SRC_FIELDS[: op.arity]:
            if field not in request:
                raise ServeError(
                    E_SHAPE, f"op {op.value!r} takes {op.arity} source(s); "
                    f"missing {field!r}"
                )
            srcs.append(
                self.tenants.lookup(tenant, self._name_of(request, field))
            )
        for operand in srcs:
            if operand.bits != dst.bits:
                raise ServeError(
                    E_SHAPE,
                    f"operand {operand.name!r} is {operand.bits} bit(s) but "
                    f"destination {dst.name!r} is {dst.bits}",
                )
        self.tenants.admit(tenant)
        ctx = _REQUEST_CTX.get()
        op_request = OpRequest(
            op=op,
            tenant=tenant,
            dst=dst.rows,
            srcs=tuple(operand.rows for operand in srcs),
            future=asyncio.get_event_loop().create_future(),
        )
        if ctx is not None:
            # The wave runner stamps device timing into the OpRequest on
            # the device thread; the trace id rides along so the runner
            # can join the hardware tracer's op frames to this request.
            op_request.timing["trace"] = ctx.trace
        try:
            self.coalescer.submit(op_request)
            await op_request.future
        finally:
            if ctx is not None:
                ctx.adopt(op_request.timing)
            self.tenants.release(tenant)
        return ok_response(op=op.value, dst=dst.name)

    async def _cmd_delete(self, request: Dict[str, Any]) -> Dict[str, Any]:
        tenant = self._tenant_of(request)
        name = self._name_of(request)
        handle = self.tenants.delete_vector(tenant, name)
        await self._on_device(self.session.forget, handle.rows)
        return ok_response(name=name, rows=len(handle.rows))

    async def _cmd_stats(self, request: Dict[str, Any]) -> Dict[str, Any]:
        # The snapshot runs the collectors; the totals read after it.
        snapshot = self.metrics.snapshot()
        totals = {
            "batches": self._family_total("ambit_serve_batches_total"),
            "coalesced_batches": self._family_total(
                "ambit_serve_coalesced_batches_total"
            ),
            "backpressure": self._family_total(
                "ambit_serve_backpressure_total"
            ),
            "quota_rejections": self._family_total(
                "ambit_serve_quota_rejections_total"
            ),
            "faults_recovered": self._family_total(
                "ambit_faults_recovered_total"
            ),
            "faults_unrecovered": self._family_total(
                "ambit_faults_unrecovered_total"
            ),
        }
        serve = {
            name: value
            for name, value in snapshot.items()
            if name.startswith("ambit_serve_")
        }
        return ok_response(totals=totals, metrics=serve)

    async def _cmd_spans(self, request: Dict[str, Any]) -> Dict[str, Any]:
        if self.spans is None:
            raise ServeError(
                E_PROTOCOL,
                "request tracing is disabled on this server (--no-trace)",
            )
        trace_id = request.get("trace")
        if trace_id is not None:
            if not isinstance(trace_id, str):
                raise ServeError(E_PROTOCOL, "'trace' must be a string")
            trace = self.spans.get(trace_id)
            if trace is None:
                raise ServeError(
                    E_NO_TRACE,
                    f"no trace {trace_id!r} in the span ring "
                    f"(capacity {self.spans.capacity}; it may have aged out)",
                )
            return ok_response(spans=[trace.to_dict()])
        slowest = request.get("slowest")
        if slowest is not None and (
            not isinstance(slowest, int) or isinstance(slowest, bool)
            or slowest < 1
        ):
            raise ServeError(E_PROTOCOL, "'slowest' must be a positive int")
        tenant = request.get("tenant")
        op = request.get("op")
        traces = self.spans.list(
            slowest=slowest,
            tenant=tenant if isinstance(tenant, str) else None,
            op=op if isinstance(op, str) else None,
        )
        return ok_response(
            spans=[trace.to_dict() for trace in traces],
            recorded=len(self.spans),
        )

    def _family_total(self, name: str) -> float:
        """Sum a counter family across all label combinations (0 if absent)."""
        family = self.metrics.get(name)
        if family is None:
            return 0.0
        return float(sum(
            child.value
            for child in family.children.values()
            if hasattr(child, "value")
        ))

    # ------------------------------------------------------------------
    # Wave execution (single device thread)
    # ------------------------------------------------------------------
    def _run_waves(self, waves):
        outcomes = []
        for wave in waves:
            outcomes.extend(self._run_wave(wave))
        return outcomes

    def _run_wave(self, wave: Wave):
        if self.injector is not None:
            self.injector.before_op(self._wave_index)
        wave_index = self._wave_index
        self._wave_index += 1
        dst, (src1, src2, src3) = wave.operands()
        log_mark = self.session.log_total
        attempts_mark = self.session.attempts_total
        traces = [
            request.timing["trace"]
            for request in wave.requests
            if "trace" in request.timing
        ]
        tracer = getattr(self.device, "tracer", None)
        if tracer is not None and traces:
            # Join key between the request span trees and the hardware
            # tracer's op events: every op frame the wave executes is
            # stamped with the member trace ids and the wave span label.
            tracer.span_context = (",".join(traces), f"wave:{wave_index}")
        device_start = time.perf_counter_ns()
        error: Optional[Exception] = None
        try:
            self.session.run_rows(wave.op, dst, src1, src2, src3)
        except Exception as exc:
            error = exc
        finally:
            device_end = time.perf_counter_ns()
            if tracer is not None:
                tracer.span_context = None
            attempts = [
                attempt.to_dict()
                for attempt in self.session.attempts_since(attempts_mark)
            ]
            wave_info = {
                "index": wave_index,
                "requests": len(wave.requests),
                "wave_op": wave.op.value,
            }
            for request in wave.requests:
                request.timing["device_start"] = device_start
                request.timing["device_end"] = device_end
                request.timing["attempts"] = attempts
                request.timing["wave"] = wave_info
        if error is not None:
            return [(request, error) for request in wave.requests]
        bad_keys = {
            (record.bank, record.subarray, record.address)
            for record in self.session.log_since(log_mark)
            if record.action == "unrecovered"
        }
        outcomes = []
        for request in wave.requests:
            if bad_keys & request.dst_keys:
                outcomes.append((request, ServeError(
                    E_FAULT,
                    "an unrecovered fault corrupted the destination; "
                    "rewrite the operands and retry",
                )))
            else:
                outcomes.append((request, None))
        return outcomes
