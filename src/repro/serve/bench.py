"""Serving-layer benchmark: coalesced versus one-op-per-batch dispatch.

The service's entire reason to exist is the claim that a *coalescing*
front door turns thousands of small concurrent client ops into the
bulk shape the engine is fast at.  This bench measures exactly that
claim and nothing else: the same seeded client swarm (every client
synchronously awaiting each op -- the worst case for batching, since
nothing arrives pre-grouped) runs twice against self-hosted servers
that differ only in ``ServeConfig.max_batch_ops``, the most requests
one drain cycle takes:

* **coalesced** (``max_batch_ops=1024``) -- the drain loop fuses
  whatever is queued into hazard-safe waves (one engine batch per
  wave);
* **single** (``max_batch_ops=1``) -- the drain loop dispatches one
  request per batch, i.e. the front door without its tentpole.

Both arms verify bit-exactness through the load generator's read-back
(a throughput number from a server that corrupted state would be
worthless), quotas and backpressure are opened wide so admission noise
cannot pollute the comparison, and each arm keeps its best of
``repeats`` runs to damp scheduler jitter.  The paper-shaped claim --
amortizing fixed per-batch cost over many rows is where in-DRAM
throughput comes from (Ambit Section 7.1 at memory scale, the batched
engine at per-dispatch scale) -- becomes a single recorded ratio:
``speedup = coalesced.throughput / single.throughput``, floored by
``benchmarks/test_bench_serve.py``, which writes
``benchmarks/results/BENCH_serve.json``.
"""

from __future__ import annotations

import gc
import os
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional

from repro.errors import ConfigError
from repro.serve.loadgen import (
    VECTOR_NAMES,
    LoadGenConfig,
    run_loadgen,
)
from repro.serve.server import ServeConfig

#: ``max_batch_ops`` of the coalesced arm; the single arm takes 1.
COALESCED = 1024


@dataclass(frozen=True)
class ServeBenchConfig:
    """One A/B run; deterministic given ``seed``."""

    clients: int = 64
    ops: int = 8          # awaited ops per client, per arm
    bits: int = 2048
    seed: int = 7
    repeats: int = 3      # best-of per arm (the spans bench runs each twice)

    def validate(self) -> None:
        """Raise :class:`~repro.errors.ConfigError` on bad sizes."""
        if self.clients < 1 or self.ops < 1 or self.bits < 1:
            raise ConfigError("clients, ops and bits must all be >= 1")
        if self.repeats < 1:
            raise ConfigError(f"repeats must be >= 1; got {self.repeats}")


def _serve_config(
    config: ServeBenchConfig, max_batch_ops: int, trace: bool = True
) -> ServeConfig:
    """A server sized so *only* ``max_batch_ops`` differs between arms.

    Quotas unlimited and the queue far above the client count: any
    rejection would add client retries and measure flow control, not
    batching.
    """
    row_bytes = 512
    row_bits = row_bytes * 8
    rows_per_vector = max(1, -(-config.bits // row_bits))
    slots_per_vector = max(1, -(-rows_per_vector // 4))
    slots = (config.clients * len(VECTOR_NAMES) + 8) * slots_per_vector
    return ServeConfig(
        banks=4,
        rows=slots + 24,
        row_bytes=row_bytes,
        max_queue=max(4096, config.clients * 4),
        max_batch_ops=max_batch_ops,
        max_vectors=0,
        max_rows=0,
        max_inflight=0,
        seed=config.seed,
        trace=trace,
    )


def _run_once(
    config: ServeBenchConfig, max_batch_ops: int, trace: bool = True
) -> Dict[str, Any]:
    report = run_loadgen(LoadGenConfig(
        clients=config.clients,
        ops=config.ops,
        bits=config.bits,
        seed=config.seed,          # same swarm every repeat and arm
        concurrency=config.clients,
        quota_probe=False,
        burst=0,
        serve=_serve_config(config, max_batch_ops, trace),
    ))
    if not report.bit_exact:
        arm = "single" if max_batch_ops == 1 else "coalesced"
        raise AssertionError(
            f"{arm} arm lost {report.mismatches} bit(s); a throughput "
            f"number from a corrupting server is void"
        )
    totals = report.server_totals
    batches = totals.get("batches", 0.0)
    return {
        "throughput_ops_s": report.throughput_ops_s,
        "wall_s": report.wall_s,
        "p50_ms": report.p50_ms,
        "p99_ms": report.p99_ms,
        "ops_ok": report.ops_ok,
        "batches": batches,
        "coalesced_batches": totals.get("coalesced_batches", 0.0),
        "mean_batch_requests": (
            report.ops_ok / batches if batches else 0.0
        ),
        "bit_exact": report.bit_exact,
    }


def _best(runs: List[Dict[str, Any]]) -> Dict[str, Any]:
    return max(runs, key=lambda run: run["throughput_ops_s"])


def _run_arm(config: ServeBenchConfig, max_batch_ops: int) -> Dict[str, Any]:
    runs = [_run_once(config, max_batch_ops) for _ in range(config.repeats)]
    return _best(runs)


def run_serve_bench(
    config: Optional[ServeBenchConfig] = None,
) -> Dict[str, Any]:
    """Both arms; raises on any bit-exactness violation."""
    config = config if config is not None else ServeBenchConfig()
    config.validate()
    coalesced = _run_arm(config, COALESCED)
    single = _run_arm(config, 1)
    return {
        "bench": "serve",
        "cpu_count": os.cpu_count() or 1,
        "config": asdict(config),
        "coalesced": coalesced,
        "single": single,
        "speedup": (
            coalesced["throughput_ops_s"] / single["throughput_ops_s"]
            if single["throughput_ops_s"]
            else 0.0
        ),
        "bit_exact": coalesced["bit_exact"] and single["bit_exact"],
    }


def run_spans_overhead_bench(
    config: Optional[ServeBenchConfig] = None,
) -> Dict[str, Any]:
    """Request tracing on versus off, same swarm: the span tax.

    Per-request span materialization (checkpoint stamps, breakdown
    arithmetic, ring insertion) rides the serving hot path, so it must
    pay its way: the recorded ``overhead`` is
    ``1 - traced.throughput / untraced.throughput`` (positive = tracing
    costs throughput), gated in ``BENCH_spans_overhead.json`` against
    an absolute ceiling rather than a baseline ratio -- the claim is
    "tracing is cheap", not "tracing costs what it cost last week".

    Each repeat runs the arms in the balanced order traced, untraced,
    untraced, traced, so drift over the runs cancels, and does a full
    garbage collection before every run.  Without it, one collection of
    the heap that earlier work in the process left behind (tens of
    milliseconds, a sizeable share of a run) lands in whichever arm
    happens to cross the threshold and decides the result.  Each arm
    keeps its best run.
    """
    config = config if config is not None else ServeBenchConfig()
    config.validate()
    runs: Dict[bool, List[Dict[str, Any]]] = {True: [], False: []}
    for _ in range(config.repeats):
        for trace in (True, False, False, True):
            gc.collect()
            runs[trace].append(_run_once(config, COALESCED, trace=trace))
    traced, untraced = _best(runs[True]), _best(runs[False])
    overhead = (
        1.0 - traced["throughput_ops_s"] / untraced["throughput_ops_s"]
        if untraced["throughput_ops_s"]
        else 0.0
    )
    return {
        "bench": "spans_overhead",
        "cpu_count": os.cpu_count() or 1,
        "config": asdict(config),
        "traced": traced,
        "untraced": untraced,
        "overhead": overhead,
        "bit_exact": traced["bit_exact"] and untraced["bit_exact"],
    }


def format_spans_overhead_bench(payload: Dict[str, Any]) -> str:
    """Human-readable tracing-tax summary."""
    config = payload["config"]
    lines = [
        "ambit spans bench: request tracing on vs off",
        f"  {config['clients']} clients x {config['ops']} ops x "
        f"{config['bits']} bits  seed {config['seed']}  "
        f"best of {2 * config['repeats']} per arm",
    ]
    for name in ("traced", "untraced"):
        arm = payload[name]
        lines.append(
            f"  {name:>9}: {arm['throughput_ops_s']:8.0f} ops/s  "
            f"p99 {arm['p99_ms']:6.2f} ms"
        )
    lines.append(
        f"  overhead {payload['overhead'] * 100:+.1f}%  "
        f"bit-exact {'yes' if payload['bit_exact'] else 'NO'}"
    )
    if "max_overhead" in payload:
        lines.append(f"  ceiling {payload['max_overhead'] * 100:.0f}%")
    return "\n".join(lines)


def format_serve_bench(payload: Dict[str, Any]) -> str:
    """Human-readable A/B summary."""
    config = payload["config"]
    lines = [
        "ambit serve bench: coalesced vs one-op-per-batch",
        f"  {config['clients']} clients x {config['ops']} ops x "
        f"{config['bits']} bits  seed {config['seed']}  "
        f"best of {config['repeats']}",
    ]
    for name in ("coalesced", "single"):
        arm = payload[name]
        lines.append(
            f"  {name:>9}: {arm['throughput_ops_s']:8.0f} ops/s  "
            f"p99 {arm['p99_ms']:6.2f} ms  "
            f"{arm['batches']:.0f} batches "
            f"({arm['mean_batch_requests']:.1f} req/batch)"
        )
    lines.append(
        f"  speedup {payload['speedup']:.2f}x  "
        f"bit-exact {'yes' if payload['bit_exact'] else 'NO'}"
    )
    if "speedup_tier" in payload:
        lines.append(
            f"  floor {payload.get('required_speedup', 0)}x "
            f"(tier {payload['speedup_tier']})"
        )
    return "\n".join(lines)
