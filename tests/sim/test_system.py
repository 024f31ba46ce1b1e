"""Execution contexts: functional equivalence + cost structure."""

import numpy as np
import pytest

from repro.core.microprograms import BulkOp
from repro.errors import ConfigError, SimulationError
from repro.sim.cpu import CpuModel, CpuModelConfig
from repro.sim.system import AmbitContext, AmbitMemoryConfig, CpuContext


@pytest.fixture
def rng():
    return np.random.default_rng(17)


def _vec(rng, words=4096):
    return rng.integers(0, 2**63, size=words, dtype=np.uint64)


class TestCpuModel:
    def test_bandwidth_tiers(self):
        cpu = CpuModel()
        cfg = cpu.config
        assert cpu.stream_gbps(cfg.l1_bytes) == cfg.l1_stream_gbps
        assert cpu.stream_gbps(cfg.l2_bytes) == cfg.l2_stream_gbps
        assert cpu.stream_gbps(cfg.l2_bytes + 1) == cfg.dram_stream_gbps

    def test_popcount_compute_bound(self):
        cpu = CpuModel()
        # At default rates popcount is slower than any stream tier.
        assert cpu.popcount_ns(1024) == pytest.approx(
            1024 / cpu.config.popcount_gbps
        )

    def test_stream_time(self):
        cpu = CpuModel()
        big = cpu.config.l2_bytes * 4
        assert cpu.stream_ns(big, big) == pytest.approx(
            big / cpu.config.dram_stream_gbps
        )

    def test_negative_traffic_rejected(self):
        with pytest.raises(ConfigError):
            CpuModel().stream_ns(-1, 100)

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            CpuModelConfig(dram_stream_gbps=0)
        with pytest.raises(ConfigError):
            CpuModelConfig(l1_bytes=4 * 1024 * 1024)

    def test_alu_and_pointer_chase(self):
        cpu = CpuModel()
        assert cpu.alu_ns(16) == pytest.approx(2 / 4.0)
        assert cpu.pointer_chase_ns(10) == pytest.approx(150.0)


class TestFunctionalEquivalence:
    @pytest.mark.parametrize(
        "op", [BulkOp.AND, BulkOp.OR, BulkOp.XOR, BulkOp.NAND, BulkOp.NOR,
               BulkOp.XNOR]
    )
    def test_contexts_compute_identically(self, rng, op):
        a, b = _vec(rng), _vec(rng)
        cpu_out = CpuContext().bulk_op(op, a, b)
        ambit_out = AmbitContext().bulk_op(op, a, b)
        assert np.array_equal(cpu_out, ambit_out)

    def test_not_and_copy(self, rng):
        a = _vec(rng)
        assert np.array_equal(CpuContext().bulk_op(BulkOp.NOT, a), ~a)
        assert np.array_equal(AmbitContext().bulk_op(BulkOp.COPY, a), a)

    def test_popcount_equal(self, rng):
        a = _vec(rng)
        assert CpuContext().popcount(a) == AmbitContext().popcount(a)

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(SimulationError):
            CpuContext().bulk_op(BulkOp.AND, _vec(rng, 4), _vec(rng, 8))

    def test_arity_enforced(self, rng):
        with pytest.raises(SimulationError):
            CpuContext().bulk_op(BulkOp.NOT, _vec(rng), _vec(rng))
        with pytest.raises(SimulationError):  # three operands: bulk_maj
            CpuContext().bulk_op(BulkOp.MAJ, _vec(rng), _vec(rng))


class TestCostStructure:
    def test_ambit_bitwise_much_faster_on_large_vectors(self, rng):
        a, b = _vec(rng, 1 << 16), _vec(rng, 1 << 16)  # 512 KB
        cpu_ctx, ambit_ctx = CpuContext(), AmbitContext()
        cpu_ctx.bulk_op(BulkOp.AND, a, b)
        ambit_ctx.bulk_op(BulkOp.AND, a, b)
        assert ambit_ctx.elapsed_ns < cpu_ctx.elapsed_ns / 10

    def test_popcount_costs_the_same_on_both(self, rng):
        a = _vec(rng, 1 << 14)
        cpu_ctx, ambit_ctx = CpuContext(), AmbitContext()
        cpu_ctx.popcount(a)
        ambit_ctx.popcount(a)
        assert cpu_ctx.elapsed_ns == pytest.approx(ambit_ctx.elapsed_ns)

    def test_cpu_cost_scales_with_traffic(self, rng):
        a, b = _vec(rng, 1 << 16), _vec(rng, 1 << 16)
        ctx = CpuContext()
        ctx.bulk_op(BulkOp.NOT, a)
        t_not = ctx.elapsed_ns
        ctx2 = CpuContext()
        ctx2.bulk_op(BulkOp.AND, a, b)
        assert ctx2.elapsed_ns == pytest.approx(t_not * 1.5)

    def test_ambit_cost_scales_with_rows(self, rng):
        mem = AmbitMemoryConfig(banks=1)
        one_row = AmbitContext(memory=mem)
        one_row.bulk_op(BulkOp.AND, _vec(rng, 1024), _vec(rng, 1024))
        two_rows = AmbitContext(memory=mem)
        two_rows.bulk_op(BulkOp.AND, _vec(rng, 2048), _vec(rng, 2048))
        assert two_rows.elapsed_ns > one_row.elapsed_ns

    def test_banks_give_parallelism(self, rng):
        a, b = _vec(rng, 1 << 15), _vec(rng, 1 << 15)
        few = AmbitContext(memory=AmbitMemoryConfig(banks=1))
        many = AmbitContext(memory=AmbitMemoryConfig(banks=16))
        few.bulk_op(BulkOp.AND, a, b)
        many.bulk_op(BulkOp.AND, a, b)
        assert many.elapsed_ns < few.elapsed_ns

    def test_dirty_cpu_data_charges_flush(self, rng):
        a, b = _vec(rng, 1 << 14), _vec(rng, 1 << 14)
        clean = AmbitContext()
        clean.bulk_op(BulkOp.AND, a, b)
        dirty = AmbitContext()
        dirty.mark_cpu_written(a.nbytes)
        dirty.mark_cpu_written(b.nbytes)
        dirty.bulk_op(BulkOp.AND, a, b)
        assert dirty.breakdown["coherence"] > clean.breakdown["coherence"]
        assert dirty.coherence_log.lines_written_back > 0

    def test_flush_happens_once(self, rng):
        a, b = _vec(rng, 1 << 14), _vec(rng, 1 << 14)
        ctx = AmbitContext()
        ctx.mark_cpu_written(a.nbytes)
        ctx.bulk_op(BulkOp.AND, a, b)
        first_writebacks = ctx.coherence_log.lines_written_back
        ctx.bulk_op(BulkOp.AND, a, b)
        assert ctx.coherence_log.lines_written_back == first_writebacks

    def test_breakdown_labels(self, rng):
        ctx = AmbitContext()
        ctx.bulk_op(BulkOp.AND, _vec(rng), _vec(rng), label="stage1")
        ctx.popcount(_vec(rng), label="count")
        assert "stage1" in ctx.breakdown and "count" in ctx.breakdown
        total = sum(ctx.breakdown.values())
        assert total == pytest.approx(ctx.elapsed_ns)

    def test_charge_stream_custom_kernel(self):
        ctx = CpuContext()
        ctx.charge_stream(2048, working_set_bytes=2048, label="fused")
        assert ctx.breakdown["fused"] > 0
