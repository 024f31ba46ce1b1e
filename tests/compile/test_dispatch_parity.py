"""Cross-tier differential tests for compiled operations.

A compiled op must be bit-exact on both execution tiers -- the serial
per-row walk (``fuse=False``) and the fused engine -- and
observationally identical (elapsed clock, command trace).  The
plan-cache tests pin
the per-op-label statistics bugfix: compiled plans get their own
``c:<name>`` hit/miss counters instead of colliding into a fixed enum.
"""

import numpy as np
import pytest

from repro.apps.bitvector import AmbitBitSystem
from repro.compile import compile_expr, evaluate, parse_expr, variables
from repro.core.device import AmbitDevice
from repro.dram.geometry import small_test_geometry
from repro.obs import CommandLog

EXPR = "mux(c, a ^ b, maj(a, b, c))"

#: Striped-vector geometry: 4 rows per vector across 4 banks, so every
#: batch spans banks and the plan cache sees repeated local addresses.
GEO = dict(rows=64, row_bytes=32, banks=4, subarrays_per_bank=2)


def _device(tier):
    """A device whose row batches take ``tier``: ``"fused"`` as built,
    ``"serial"`` through ``engine.run_rows(..., fuse=False)``."""
    device = AmbitDevice(geometry=small_test_geometry(**GEO))
    if tier == "serial":
        def run_rows(op, dst, *srcs, temps=()):
            return device.engine.run_rows(
                op, dst, *srcs, temps=temps, fuse=False
            )

        device.run_rows = run_rows
    return device


def _workload(device, expr_text=EXPR, seed=3):
    """Allocate striped operands and run ``compute`` on ``device``."""
    expr = parse_expr(expr_text)
    names = variables(expr)
    system = AmbitBitSystem(device=device)
    nbits = 4 * device.row_bits
    rng = np.random.default_rng(seed)
    bits = {name: rng.integers(0, 2, nbits).astype(bool) for name in names}
    vectors = {}
    template = None
    for name in names:
        vectors[name] = system.from_bits(bits[name], like=template)
        template = template if template is not None else vectors[name]
    out = vectors[names[0]].compute(expr, **vectors)
    return out.to_bits(), evaluate(expr, bits), device.elapsed_ns


class TestTierParity:
    def test_serial_fused_bit_exact(self):
        # Two expressions in turn, the third compute re-binding the
        # first one's templates.
        outcomes = {}
        for tier in ("serial", "fused"):
            device = _device(tier)
            runs = [_workload(device, text) for text in (EXPR, "a & ~b", EXPR)]
            for got, want, _ in runs:
                assert np.array_equal(got, want), tier
            outcomes[tier] = (
                b"".join(got.tobytes() for got, _, _ in runs),
                runs[-1][2],
            )
        assert outcomes["serial"] == outcomes["fused"]

    def test_traced_serial_run_is_byte_identical(self):
        texts = {}
        for tier in ("serial", "fused"):
            device = _device(tier)
            system = AmbitBitSystem(device=device)
            cop = compile_expr(parse_expr("a ^ b"), name="parity")
            nbits = 4 * device.row_bits
            rng = np.random.default_rng(9)
            ba = rng.integers(0, 2, nbits).astype(bool)
            bb = rng.integers(0, 2, nbits).astype(bool)
            a = system.from_bits(ba)
            b = system.from_bits(bb, like=a)
            log = CommandLog(device)
            out = a.compute(cop, a=a, b=b)
            texts[tier] = log.text()
            log.detach()
            assert np.array_equal(out.to_bits(), ba ^ bb)
        assert texts["serial"] == texts["fused"]


class TestCompiledPlanCacheStats:
    """The per-op-label statistics fix: compiled plans count under
    their own ``c:<name>`` keys and hit on re-issue."""

    def test_compiled_plans_hit_on_reissue(self):
        device = AmbitDevice(geometry=small_test_geometry(**GEO))
        system = AmbitBitSystem(device=device)
        cop = compile_expr(parse_expr("a & ~b"), name="hits")
        nbits = 4 * device.row_bits
        rng = np.random.default_rng(1)
        ba = rng.integers(0, 2, nbits).astype(bool)
        bb = rng.integers(0, 2, nbits).astype(bool)
        a = system.from_bits(ba)
        b = system.from_bits(bb, like=a)

        cache = device.controller.plan_cache
        out1 = a.compute(cop, a=a, b=b)
        misses_after_first = cache.misses_by_op.get("c:hits", 0)
        hits_after_first = cache.hits_by_op.get("c:hits", 0)
        assert misses_after_first > 0
        # Templates are keyed by shape, not address: a re-issue into a
        # fresh destination row hits on every row.
        out2 = a.compute(cop, a=a, b=b)
        assert cache.hits_by_op.get("c:hits", 0) > hits_after_first
        assert cache.misses_by_op.get("c:hits", 0) == misses_after_first
        assert np.array_equal(out1.to_bits(), ba & ~bb)
        assert np.array_equal(out2.to_bits(), ba & ~bb)

    def test_labels_are_distinct_per_op(self):
        device = AmbitDevice(geometry=small_test_geometry(**GEO))
        system = AmbitBitSystem(device=device)
        first = compile_expr(parse_expr("a & b"), name="alpha")
        second = compile_expr(parse_expr("a | b"), name="beta")
        nbits = device.row_bits
        rng = np.random.default_rng(2)
        a = system.from_bits(rng.integers(0, 2, nbits).astype(bool))
        b = system.from_bits(
            rng.integers(0, 2, nbits).astype(bool), like=a
        )
        a.compute(first, a=a, b=b)
        a.compute(second, a=a, b=b)
        cache = device.controller.plan_cache
        assert "c:alpha" in cache.misses_by_op
        assert "c:beta" in cache.misses_by_op
        # Fixed ops keep their own labels too (the write_row COPYs ran).
        assert all(
            label.startswith("c:") or ":" not in label
            for label in cache.misses_by_op
        )

    def test_profiler_reports_compiled_labels(self):
        from repro.obs.profiler import profile

        device = AmbitDevice(geometry=small_test_geometry(**GEO))
        system = AmbitBitSystem(device=device)
        cop = compile_expr(parse_expr("a ^ b"), name="profiled")
        nbits = 4 * device.row_bits
        rng = np.random.default_rng(4)
        a = system.from_bits(rng.integers(0, 2, nbits).astype(bool))
        b = system.from_bits(
            rng.integers(0, 2, nbits).astype(bool), like=a
        )
        with profile(device) as report:
            a.compute(cop, a=a, b=b)
        assert "c:profiled" in report.plan_cache_by_op
        hits, misses = report.plan_cache_by_op["c:profiled"]
        assert hits + misses > 0
        assert "c:profiled" in report.format_table()


class TestKernelsAcrossTiers:
    """Acceptance: add and popcount match numpy on every tier."""

    @pytest.mark.parametrize("tier", ["serial", "fused"])
    def test_add_and_popcount(self, tier):
        from repro.compile.kernels import BitColumn, add, popcount

        device = _device(tier)
        system = AmbitBitSystem(device=device)
        rng = np.random.default_rng(6)
        n = device.row_bits  # single-row planes keep the soak fast
        bits = 5
        lhs = rng.integers(0, 1 << bits, n, dtype=np.uint64)
        rhs = rng.integers(0, 1 << bits, n, dtype=np.uint64)
        a = BitColumn.from_ints(system, lhs, bits)
        b = BitColumn.from_ints(system, rhs, bits, like=a.planes[0])
        total = add(a, b)
        assert np.array_equal(
            total.to_ints(), (lhs + rhs) % (1 << bits)
        ), tier

        planes = [rng.integers(0, 2, n).astype(bool) for _ in range(6)]
        vectors = [system.from_bits(p) for p in planes]
        counts = popcount(vectors)
        assert np.array_equal(
            counts.to_ints(), np.sum(planes, axis=0).astype(np.uint64)
        ), tier
