"""Serving-layer benchmark: the coalescing front door must earn its keep.

Runs :func:`repro.serve.bench.run_serve_bench` -- 64 concurrent clients
each awaiting 8 bulk ops over 2048-bit vectors, against two self-hosted
servers differing only in ``ServeConfig.max_batch_ops`` (1024 and 1)
-- and writes ``benchmarks/results/BENCH_serve.json``.

Bit-exactness is asserted unconditionally (both arms read every vector
back against the clients' local models; the bench raises on any lost
bit).  The speedup floor is host-tiered like ``BENCH_parallel.json``:

* >= 2 schedulable cores: coalesced dispatch must reach **2x** the
  one-op-per-batch server (the PR's acceptance floor);
* 1 core: a softer 1.3x floor still applies -- coalescing amortizes
  per-batch overhead, not core count, so it must win even here; only
  the magnitude is waived down.

``REPRO_BENCH_REQUIRE=<factor>`` forces a floor regardless of detected
cores (CI serve-smoke runners).  Whichever floor applied is recorded in
the artifact as ``speedup_tier``/``required_speedup`` so a laptop
baseline can never masquerade as a multi-core one.
"""

import json
import os

from repro.parallel.pmap import default_jobs
from repro.serve.bench import (
    ServeBenchConfig,
    format_serve_bench,
    run_serve_bench,
)

from .conftest import RESULTS_DIR

#: The acceptance floor on any host with real parallelism.
MULTI_CORE_FLOOR = 2.0
#: Coalescing is overhead amortization, not fan-out: it must win even
#: on one core, just by a gentler margin.
SINGLE_CORE_FLOOR = 1.3


def speedup_tier(cores: int):
    forced = os.environ.get("REPRO_BENCH_REQUIRE")
    if forced:
        return f"forced:{forced}", float(forced)
    if cores >= 2:
        return "2-core", MULTI_CORE_FLOOR
    return "single-core-floor", SINGLE_CORE_FLOOR


def test_bench_serve():
    config = ServeBenchConfig()
    payload = run_serve_bench(config)

    # Correctness invariants hold on any host.
    assert payload["bit_exact"] is True
    assert payload["coalesced"]["ops_ok"] == config.clients * config.ops
    assert payload["single"]["ops_ok"] == config.clients * config.ops

    # The coalesced arm must actually coalesce -- fused batches and a
    # mean batch size comfortably above one request -- while the
    # single arm must be what it claims: one request per batch.
    assert payload["coalesced"]["coalesced_batches"] >= 1
    assert payload["coalesced"]["mean_batch_requests"] >= 2.0
    assert payload["single"]["mean_batch_requests"] == 1.0

    cores = default_jobs()
    tier, required = speedup_tier(cores)
    payload["speedup_tier"] = tier
    payload["required_speedup"] = required

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_serve.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    print(f"\n{format_serve_bench(payload)}\n")

    assert payload["speedup"] >= required, (
        f"coalesced dispatch reached only {payload['speedup']:.2f}x the "
        f"one-op-per-batch server on a {cores}-core host (floor "
        f"{required}x, tier {tier}); the front door is not paying for "
        f"itself"
    )
