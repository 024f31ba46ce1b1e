"""Cross-tier differential tests for compiled operations.

A compiled op must be bit-exact on every dispatch tier -- the serial
per-row walk, the in-process fused engine, and the multi-process
sharded pool -- and observationally identical where the architecture
promises it (elapsed clock, command trace).  The plan-cache tests pin
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
from repro.parallel.device import ShardedDevice

EXPR = "mux(c, a ^ b, maj(a, b, c))"

#: Striped-vector geometry: 4 rows per vector across 4 banks, so the
#: sharded tier actually shards and the plan cache sees repeated local
#: addresses.
GEO = dict(rows=64, row_bytes=32, banks=4, subarrays_per_bank=2)


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
    def test_serial_fused_sharded_bit_exact(self):
        # Two expressions in turn: with ``max_plans=1`` each evicts the
        # other's plan and the third compute recompiles the first, the
        # churn a bounded cache sees under the serve layer.
        outcomes = {}
        for max_plans in (None, 1):
            for tier in ("serial", "fused", "sharded"):
                with ShardedDevice(
                    geometry=small_test_geometry(**GEO),
                    max_workers=2,
                    dispatch=tier,
                ) as device:
                    cache = device.controller.plan_cache
                    cache.max_plans = max_plans
                    runs = [
                        _workload(device, text)
                        for text in (EXPR, "a & ~b", EXPR)
                    ]
                    for got, want, _ in runs:
                        assert np.array_equal(got, want), (tier, max_plans)
                    assert (cache.evictions > 0) == (max_plans is not None)
                    outcomes[tier, max_plans] = (
                        b"".join(got.tobytes() for got, _, _ in runs),
                        runs[-1][2],
                    )
        assert len({bits for bits, _ in outcomes.values()}) == 1
        # Fused and sharded account identically (the sharded parent
        # re-derives time from its own plan cache), evicting or not.
        assert len({
            elapsed
            for (tier, _), (_, elapsed) in outcomes.items()
            if tier != "serial"
        }) == 1

    def test_plain_device_matches_sharded(self):
        plain = AmbitDevice(geometry=small_test_geometry(**GEO))
        got_plain, want, _ = _workload(plain)
        with ShardedDevice(
            geometry=small_test_geometry(**GEO), max_workers=2
        ) as sharded:
            got_sharded, _, _ = _workload(sharded)
        assert np.array_equal(got_plain, want)
        assert np.array_equal(got_plain, got_sharded)

    def test_traced_sharded_run_is_byte_identical(self):
        texts = {}
        for kind in ("plain", "sharded"):
            if kind == "plain":
                device = AmbitDevice(geometry=small_test_geometry(**GEO))
                closer = lambda: None  # noqa: E731
            else:
                device = ShardedDevice(
                    geometry=small_test_geometry(**GEO), max_workers=2
                )
                closer = device.close
            try:
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
                texts[kind] = log.text()
                log.detach()
                assert np.array_equal(out.to_bits(), ba ^ bb)
            finally:
                closer()
        assert texts["plain"] == texts["sharded"]


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
        # Striped vectors repeat local addresses across stripes, so
        # repeats within the first batch already hit; a re-issue into a
        # fresh destination hits again on every warmed stripe and can
        # miss at most once (the new destination row).
        out2 = a.compute(cop, a=a, b=b)
        assert cache.hits_by_op.get("c:hits", 0) > hits_after_first
        assert (
            cache.misses_by_op.get("c:hits", 0) <= misses_after_first + 1
        )
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

    @pytest.mark.parametrize("tier", ["serial", "fused", "sharded"])
    def test_add_and_popcount(self, tier):
        from repro.compile.kernels import BitColumn, add, popcount

        with ShardedDevice(
            geometry=small_test_geometry(**GEO),
            max_workers=2,
            dispatch=tier,
        ) as device:
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
