"""Batch-engine speedup benchmark: thresholds + recorded payload.

The measurement itself lives in :mod:`repro.perf.enginebench`; this
test runs it, asserts the speedup floors (batched >= 1x the per-row
path at every bank count, >= 3x at 8 banks) and the modelled
parallelism (8.0 at 8 banks), prints the table, and writes
``benchmarks/results/BENCH_engine.json``.
"""

import json

import pytest

from repro.perf.enginebench import format_engine_bench, run_engine_bench

from .conftest import RESULTS_DIR


def test_bench_engine_speedup():
    payload = run_engine_bench(rows_per_bank=40, row_bytes=1024, repeats=3)
    results = payload["results"]

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_engine.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    print("\n" + format_engine_bench(payload) + "\n")

    for r in results:
        assert r["speedup"] >= 1.0, (
            f"batched path slower than per-row at {r['banks']} banks: "
            f"{r['speedup']:.2f}x"
        )
    at8 = next(r for r in results if r["banks"] == 8)
    assert at8["speedup"] >= 3.0, (
        f"batched path must be >= 3x at 8 banks; got {at8['speedup']:.2f}x"
    )
    assert at8["parallelism"] == pytest.approx(8.0)
