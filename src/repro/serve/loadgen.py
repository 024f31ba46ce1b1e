"""Deterministic load generator and SLO soak for the serving layer.

``repro loadgen`` is to the service what ``repro chaos`` is to the
fault stack: a seeded, self-verifying acceptance run.  It simulates
*N* logical clients (thousands, bounded by a concurrency window so file
descriptors stay sane), each owning four named vectors and a local
numpy model of their contents.  Every client streams a seeded sequence
of random bulk ops, applies each acknowledged op to its model, retries
on ``backpressure``/``quota`` with deterministic backoff, resynchronises
from the server on a ``fault`` error, and finally reads every vector
back -- **bit-exactness is the pass condition**, not a sampled spot
check.

Two deliberately adversarial sub-scenarios make the protection
machinery observable instead of hoping load happens to trigger it:

* a **quota probe** (client 0) creates vectors until the per-tenant
  vector quota rejects it, then deletes them;
* a **pipelined burst** (client 0) fires a window of ops without
  awaiting responses, overrunning the in-flight quota and -- because
  the admission queue is finite -- the coalescer's backpressure bound.

The report carries client-side latency percentiles (exact, from every
recorded round trip), throughput over the op phase, the server's own
``stats`` totals, and an expectation checklist (coalescing happened,
backpressure fired, quotas clipped, faults were seen) that the CI smoke
job asserts.  Exit codes mirror ``repro chaos``: 0 pass, 1 fail,
2 bad config.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.serve.protocol import pack_bits, unpack_bits
from repro.serve.server import BulkBitwiseServer, ServeConfig

#: The nine ops, name -> (arity, numpy model).
OP_MODELS: Dict[str, Tuple[int, Any]] = {
    "copy": (1, lambda a: a.copy()),
    "not": (1, lambda a: ~a),
    "and": (2, lambda a, b: a & b),
    "or": (2, lambda a, b: a | b),
    "nand": (2, lambda a, b: ~(a & b)),
    "nor": (2, lambda a, b: ~(a | b)),
    "xor": (2, lambda a, b: a ^ b),
    "xnor": (2, lambda a, b: ~(a ^ b)),
    "maj": (3, lambda a, b, c: (a & b) | (b & c) | (a & c)),
}
OP_NAMES = tuple(sorted(OP_MODELS))
VECTOR_NAMES = ("a", "b", "c", "d")


@dataclass(frozen=True)
class LoadGenConfig:
    """One soak run, CLI-mappable; fully determined by ``seed``."""

    clients: int = 64
    ops: int = 16                  # bulk ops per client
    bits: int = 4096               # width of every client vector
    seed: int = 0
    concurrency: int = 128         # clients active at once (fd bound)
    p99_slo_ms: float = 500.0
    connect: Optional[str] = None  # "host:port"; None = self-hosted
    fault_rate: float = 0.0        # self-hosted fault injection
    quota_probe: bool = True
    burst: int = 96                # pipelined ops in the burst (0 = off)
    max_retries: int = 64
    expect_coalescing: bool = False
    expect_backpressure: bool = False
    expect_quota: bool = False
    expect_faults: bool = False
    #: Explicit self-hosted server config (None = derive via
    #: :meth:`serve_config`); ignored when ``connect`` is set.
    serve: Optional[ServeConfig] = None

    def validate(self) -> None:
        """Raise :class:`~repro.errors.ConfigError` on bad sizes."""
        if self.clients < 1:
            raise ConfigError(f"clients must be >= 1; got {self.clients}")
        if self.ops < 1:
            raise ConfigError(f"ops must be >= 1; got {self.ops}")
        if self.bits < 1:
            raise ConfigError(f"bits must be >= 1; got {self.bits}")
        if self.concurrency < 1:
            raise ConfigError("concurrency must be >= 1")
        if self.p99_slo_ms <= 0:
            raise ConfigError("p99_slo_ms must be > 0")
        if self.burst < 0 or self.max_retries < 1:
            raise ConfigError("burst must be >= 0 and max_retries >= 1")
        if not 0.0 <= self.fault_rate <= 1.0:
            raise ConfigError("fault_rate must be in [0, 1]")
        if self.connect is not None:
            host, _, port = self.connect.rpartition(":")
            if not host or not port.isdigit():
                raise ConfigError(
                    f"connect must look like host:port; got {self.connect!r}"
                )

    # ------------------------------------------------------------------
    def serve_config(self) -> ServeConfig:
        """The self-hosted server sized for this soak.

        Rows scale with the client count (each vector burns whole
        slots), the admission queue is kept *small* relative to the
        burst so backpressure is reachable, and the in-flight quota
        sits above the queue bound so the burst exercises both limits.
        """
        row_bytes = 512
        row_bits = row_bytes * 8
        rows_per_vector = max(1, -(-self.bits // row_bits))
        stripes = 4  # banks below
        slots_per_vector = max(1, -(-rows_per_vector // stripes))
        slots = (self.clients * len(VECTOR_NAMES) + 16) * slots_per_vector
        return ServeConfig(
            banks=4,
            rows=slots + 24,  # + 18 reserved + scratch/spares + slack
            row_bytes=row_bytes,
            max_queue=16,
            max_batch_ops=512,
            max_vectors=len(VECTOR_NAMES) + 4,
            max_rows=0,  # row budget covered by the vector quota here
            max_inflight=64,
            fault_rate=self.fault_rate,
            fault_ops=64,
            seed=self.seed,
        )


@dataclass
class LoadReport:
    """Everything a pass/fail decision and a human need."""

    config: LoadGenConfig
    ops_sent: int = 0
    ops_ok: int = 0
    retries: int = 0
    backpressure_hits: int = 0
    quota_hits: int = 0
    fault_errors: int = 0
    mismatches: int = 0
    wall_s: float = 0.0
    throughput_ops_s: float = 0.0
    p50_ms: float = 0.0
    p95_ms: float = 0.0
    p99_ms: float = 0.0
    server_totals: Dict[str, float] = field(default_factory=dict)
    expectations: List[Tuple[str, bool]] = field(default_factory=list)

    @property
    def bit_exact(self) -> bool:
        return self.mismatches == 0

    @property
    def slo_ok(self) -> bool:
        return self.p99_ms <= self.config.p99_slo_ms

    @property
    def ok(self) -> bool:
        return (
            self.bit_exact
            and self.slo_ok
            and self.server_totals.get("faults_unrecovered", 0.0) == 0.0
            and all(passed for _, passed in self.expectations)
        )

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1


# ----------------------------------------------------------------------
# Client machinery
# ----------------------------------------------------------------------
class _Shared:
    """Accumulators every logical client writes into."""

    def __init__(self, config: LoadGenConfig):
        self.config = config
        self.semaphore = asyncio.Semaphore(config.concurrency)
        self.latencies_ns: List[int] = []
        self.report = LoadReport(config=config)


class _Client:
    def __init__(self, index: int, host: str, port: int, shared: _Shared):
        self.index = index
        self.host = host
        self.port = port
        self.shared = shared
        self.config = shared.config
        self.rng = np.random.default_rng([shared.config.seed, index])
        self.tenant = f"t{index:04d}"
        self.model: Dict[str, np.ndarray] = {}
        # Pre-draw the whole op schedule so retries/backoff cannot
        # perturb which ops run (the soak is seed-deterministic).
        self.schedule = [
            (
                OP_NAMES[int(self.rng.integers(len(OP_NAMES)))],
                tuple(int(j) for j in self.rng.permutation(len(VECTOR_NAMES))),
            )
            for _ in range(shared.config.ops)
        ]

    # -- connection scope ----------------------------------------------
    async def _phase(self, fn):
        async with self.shared.semaphore:
            reader, writer = await asyncio.open_connection(self.host, self.port)
            try:
                return await fn(reader, writer)
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass

    async def _rpc(self, reader, writer, obj) -> Dict[str, Any]:
        writer.write(json.dumps(obj, separators=(",", ":")).encode() + b"\n")
        await writer.drain()
        line = await reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    async def _rpc_timed(self, reader, writer, obj) -> Dict[str, Any]:
        started = time.perf_counter_ns()
        response = await self._rpc(reader, writer, obj)
        self.shared.latencies_ns.append(time.perf_counter_ns() - started)
        return response

    async def _op_with_retry(self, reader, writer, obj) -> Dict[str, Any]:
        report = self.shared.report
        response: Dict[str, Any] = {}
        for attempt in range(self.config.max_retries):
            response = await self._rpc_timed(reader, writer, obj)
            if response.get("ok"):
                return response
            code = response.get("error")
            if code == "backpressure":
                report.backpressure_hits += 1
            elif code == "quota":
                report.quota_hits += 1
            else:
                return response  # fault / shape / internal: caller's call
            report.retries += 1
            await asyncio.sleep(0.001 * (attempt + 1))
        return response

    # -- phases --------------------------------------------------------
    async def setup(self) -> None:
        async def run(reader, writer):
            for name in VECTOR_NAMES:
                response = await self._rpc(reader, writer, {
                    "cmd": "create", "tenant": self.tenant,
                    "name": name, "bits": self.config.bits,
                })
                if not response.get("ok"):
                    raise ConfigError(
                        f"setup failed for {self.tenant}/{name}: "
                        f"{response.get('message')}"
                    )
                value = self.rng.integers(
                    0, 2, self.config.bits
                ).astype(bool)
                response = await self._rpc(reader, writer, {
                    "cmd": "write", "tenant": self.tenant,
                    "name": name, "data": pack_bits(value),
                })
                if not response.get("ok"):
                    raise ConfigError(
                        f"seed write failed for {self.tenant}/{name}: "
                        f"{response.get('message')}"
                    )
                self.model[name] = value

        await self._phase(run)

    async def run_ops(self) -> None:
        report = self.shared.report

        async def run(reader, writer):
            for op_name, perm in self.schedule:
                arity, fn = OP_MODELS[op_name]
                dst = VECTOR_NAMES[perm[0]]
                srcs = [VECTOR_NAMES[perm[1 + i]] for i in range(arity)]
                request = {
                    "cmd": "op", "tenant": self.tenant,
                    "op": op_name, "dst": dst,
                }
                for i, src in enumerate(srcs):
                    request[f"src{i + 1}"] = src
                report.ops_sent += 1
                response = await self._op_with_retry(reader, writer, request)
                if response.get("ok"):
                    report.ops_ok += 1
                    self.model[dst] = fn(*(self.model[s] for s in srcs))
                elif response.get("error") == "fault":
                    report.fault_errors += 1
                    await self._resync(reader, writer)
                # anything else: model untouched; verify will catch a
                # server that acked state it does not hold.

        await self._phase(run)

    async def _resync(self, reader, writer) -> None:
        """Adopt the server's state after an unrecovered fault."""
        for name in VECTOR_NAMES:
            response = await self._rpc(reader, writer, {
                "cmd": "read", "tenant": self.tenant, "name": name,
            })
            if response.get("ok"):
                self.model[name] = unpack_bits(
                    response["data"], self.config.bits
                )

    async def quota_probe(self) -> None:
        """Create vectors until the quota clips us, then clean up."""
        async def run(reader, writer):
            created = []
            for i in range(256):
                response = await self._rpc_timed(reader, writer, {
                    "cmd": "create", "tenant": self.tenant,
                    "name": f"probe{i}", "bits": self.config.bits,
                })
                if response.get("ok"):
                    created.append(f"probe{i}")
                    continue
                if response.get("error") == "quota":
                    self.shared.report.quota_hits += 1
                break
            for name in created:
                await self._rpc(reader, writer, {
                    "cmd": "delete", "tenant": self.tenant, "name": name,
                })

        await self._phase(run)

    async def burst(self) -> None:
        """Pipeline a window of identical ops without awaiting.

        Every burst op computes ``c = a xor b``; whether one or all of
        them land, the final state of ``c`` is the same, so the burst
        stays verifiable no matter which subset the in-flight quota or
        the admission queue rejects.
        """
        report = self.shared.report

        async def run(reader, writer):
            window = self.config.burst
            for i in range(window):
                writer.write(json.dumps({
                    "cmd": "op", "tenant": self.tenant, "op": "xor",
                    "dst": "c", "src1": "a", "src2": "b", "id": i,
                }, separators=(",", ":")).encode() + b"\n")
            await writer.drain()
            any_ok = False
            for _ in range(window):
                response = json.loads(await reader.readline())
                report.ops_sent += 1
                if response.get("ok"):
                    report.ops_ok += 1
                    any_ok = True
                elif response.get("error") == "backpressure":
                    report.backpressure_hits += 1
                elif response.get("error") == "quota":
                    report.quota_hits += 1
                elif response.get("error") == "fault":
                    report.fault_errors += 1
            if any_ok:
                self.model["c"] = self.model["a"] ^ self.model["b"]
            # Faults (or nothing landing) leave 'c' ambiguous only in
            # the fault case; resync settles it either way.
            if report.fault_errors:
                await self._resync(reader, writer)

        await self._phase(run)

    async def verify(self) -> None:
        async def run(reader, writer):
            for name in VECTOR_NAMES:
                response = await self._rpc(reader, writer, {
                    "cmd": "read", "tenant": self.tenant, "name": name,
                })
                if not response.get("ok"):
                    self.shared.report.mismatches += self.config.bits
                    continue
                got = unpack_bits(response["data"], self.config.bits)
                self.shared.report.mismatches += int(
                    (got != self.model[name]).sum()
                )

        await self._phase(run)


# ----------------------------------------------------------------------
# Orchestration
# ----------------------------------------------------------------------
async def _fetch_stats(host: str, port: int) -> Dict[str, float]:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(b'{"cmd":"stats","tenant":"loadgen"}\n')
        await writer.drain()
        response = json.loads(await reader.readline())
        return dict(response.get("totals", {}))
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def _quantile_ms(samples: List[int], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[rank] / 1e6


async def _run(config: LoadGenConfig) -> LoadReport:
    server: Optional[BulkBitwiseServer] = None
    if config.connect is None:
        server = BulkBitwiseServer(
            config.serve if config.serve is not None
            else config.serve_config()
        )
        await server.start()
        host, port = server.config.host, server.port
    else:
        raw_host, _, raw_port = config.connect.rpartition(":")
        host, port = raw_host, int(raw_port)

    shared = _Shared(config)
    report = shared.report
    try:
        clients = [
            _Client(i, host, port, shared) for i in range(config.clients)
        ]
        await asyncio.gather(*(c.setup() for c in clients))

        started = time.perf_counter()
        await asyncio.gather(*(c.run_ops() for c in clients))
        report.wall_s = time.perf_counter() - started

        probe = clients[0]
        if config.quota_probe:
            await probe.quota_probe()
        if config.burst > 0:
            await probe.burst()

        await asyncio.gather(*(c.verify() for c in clients))
        report.server_totals = await _fetch_stats(host, port)
    finally:
        if server is not None:
            await server.close()

    report.throughput_ops_s = (
        report.ops_ok / report.wall_s if report.wall_s > 0 else 0.0
    )
    report.p50_ms = _quantile_ms(shared.latencies_ns, 0.50)
    report.p95_ms = _quantile_ms(shared.latencies_ns, 0.95)
    report.p99_ms = _quantile_ms(shared.latencies_ns, 0.99)

    totals = report.server_totals
    if config.expect_coalescing:
        report.expectations.append((
            "coalesced batches on the server",
            totals.get("coalesced_batches", 0.0) >= 1.0,
        ))
    if config.expect_backpressure:
        report.expectations.append((
            "backpressure rejections observed",
            report.backpressure_hits >= 1
            or totals.get("backpressure", 0.0) >= 1.0,
        ))
    if config.expect_quota:
        report.expectations.append((
            "quota rejections observed",
            report.quota_hits >= 1
            or totals.get("quota_rejections", 0.0) >= 1.0,
        ))
    if config.expect_faults:
        report.expectations.append((
            "injected faults surfaced and were handled",
            totals.get("faults_recovered", 0.0)
            + totals.get("faults_unrecovered", 0.0)
            + report.fault_errors
            >= 1.0,
        ))
    return report


def run_loadgen(config: Optional[LoadGenConfig] = None) -> LoadReport:
    """Execute one soak; raises only :class:`ConfigError`."""
    config = config if config is not None else LoadGenConfig()
    config.validate()
    return asyncio.run(_run(config))


def format_loadgen(report: LoadReport) -> str:
    """Human-readable soak summary, ``repro chaos`` style."""
    config = report.config
    lines = [
        "ambit serve load soak",
        f"  clients {config.clients}  ops/client {config.ops}  "
        f"bits {config.bits}  seed {config.seed}",
        f"  target {'self-hosted' if config.connect is None else config.connect}"
        f"  concurrency {config.concurrency}",
        f"  ops: sent {report.ops_sent}  ok {report.ops_ok}  "
        f"retries {report.retries}",
        f"  rejections: backpressure {report.backpressure_hits}  "
        f"quota {report.quota_hits}  fault errors {report.fault_errors}",
        f"  latency ms: p50 {report.p50_ms:.2f}  p95 {report.p95_ms:.2f}  "
        f"p99 {report.p99_ms:.2f}  (SLO p99 <= {config.p99_slo_ms:.0f})",
        f"  throughput {report.throughput_ops_s:.0f} ops/s over "
        f"{report.wall_s:.2f} s",
    ]
    totals = report.server_totals
    if totals:
        lines.append(
            f"  server: batches {totals.get('batches', 0):.0f}  "
            f"coalesced {totals.get('coalesced_batches', 0):.0f}  "
            f"faults recovered {totals.get('faults_recovered', 0):.0f}  "
            f"unrecovered {totals.get('faults_unrecovered', 0):.0f}"
        )
    for label, passed in report.expectations:
        lines.append(f"  [{'ok  ' if passed else 'FAIL'}] expected {label}")
    lines.append(
        f"  bit-exact: {'yes' if report.bit_exact else f'NO ({report.mismatches} bit(s))'}  "
        f"slo: {'ok' if report.slo_ok else 'VIOLATED'}"
    )
    lines.append(f"  verdict: {'PASS' if report.ok else 'FAIL'}")
    return "\n".join(lines)
