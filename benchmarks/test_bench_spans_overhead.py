"""Span-overhead benchmark: request tracing must stay affordable.

Runs :func:`repro.serve.bench.run_spans_overhead_bench` -- the same
seeded client swarm against two self-hosted coalescing servers that
differ only in ``ServeConfig.trace`` -- and writes
``benchmarks/results/BENCH_spans_overhead.json``.

Request spans ride the serving hot path (checkpoint stamps in the
coalescer and wave runner, breakdown arithmetic and ring insertion per
response), so the tax is measured end to end, at the socket, exactly
where a client would feel it.  Bit-exactness is asserted on both arms,
and the throughput loss must stay under ``MAX_OVERHEAD``.  The gate is
an *absolute* ceiling, not a baseline ratio: the claim is "tracing is
cheap", and a regression that doubles a cheap cost could hide inside a
relative tolerance forever.
"""

import json

from repro.serve.bench import (
    ServeBenchConfig,
    format_spans_overhead_bench,
    run_spans_overhead_bench,
)

from .conftest import RESULTS_DIR

#: Documented ceiling on the traced arm's throughput loss.
MAX_OVERHEAD = 0.10


def test_bench_spans_overhead():
    # 32 ops per client: a run of 512 ops is too short to tell a few
    # percent of tracing from scheduler noise.
    config = ServeBenchConfig(ops=32)
    payload = run_spans_overhead_bench(config)

    # Correctness invariants hold on any host.
    assert payload["bit_exact"] is True
    assert payload["traced"]["ops_ok"] == config.clients * config.ops
    assert payload["untraced"]["ops_ok"] == config.clients * config.ops

    payload["max_overhead"] = MAX_OVERHEAD
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_spans_overhead.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    print(f"\n{format_spans_overhead_bench(payload)}\n")

    assert payload["overhead"] < MAX_OVERHEAD, (
        f"request tracing costs {payload['overhead'] * 100:.1f}% of serve "
        f"throughput (ceiling {MAX_OVERHEAD * 100:.0f}%); spans are "
        f"supposed to be cheap enough to leave on"
    )
