"""Figure 9 throughput models and the analytical/functional cross-check."""

import pytest

from repro.core.device import AmbitDevice
from repro.core.microprograms import BulkOp
from repro.dram.geometry import (
    DramGeometry,
    SubarrayGeometry,
    small_test_geometry,
)
from repro.errors import ConfigError
from repro.perf.systems import (
    FIGURE9_OPS,
    AmbitSystem,
    BandwidthBoundSystem,
    ambit,
    ambit_3d,
    gtx745,
    hmc20,
    skylake,
)
from repro.perf.throughput import (
    figure9_experiment,
    format_figure9,
    measure_ambit_batched,
    measure_ambit_functional,
)


class TestBandwidthBoundSystems:
    def test_not_has_higher_throughput_than_and(self):
        # not moves 2 bytes per output byte; and moves 3.
        sky = skylake()
        assert sky.throughput_gops(BulkOp.NOT) > sky.throughput_gops(BulkOp.AND)
        assert sky.throughput_gops(BulkOp.NOT) == pytest.approx(
            sky.throughput_gops(BulkOp.AND) * 1.5
        )

    def test_two_operand_ops_uniform(self):
        sky = skylake()
        assert sky.throughput_gops(BulkOp.XOR) == pytest.approx(
            sky.throughput_gops(BulkOp.NAND)
        )

    def test_invalid_efficiency(self):
        with pytest.raises(ConfigError):
            BandwidthBoundSystem("x", peak_gbps=10, efficiency=1.5)

    def test_hmc_beats_cpu_and_gpu(self):
        assert hmc20().effective_gbps > skylake().effective_gbps
        assert hmc20().effective_gbps > gtx745().effective_gbps


class TestAmbitSystem:
    def test_throughput_scales_with_banks(self):
        assert ambit(banks=16).throughput_gops(BulkOp.AND) == pytest.approx(
            2 * ambit(banks=8).throughput_gops(BulkOp.AND)
        )

    def test_and_latency_matches_timing(self):
        # 4 overlapped AAPs at 49 ns on DDR3-1600.
        assert ambit().op_latency_ns(BulkOp.AND) == pytest.approx(196.0)

    def test_split_decoder_ablation_slower(self):
        naive = AmbitSystem(
            "naive", timing=ambit().timing, banks=8, row_bytes=8192,
            split_decoder=False,
        )
        assert naive.throughput_gops(BulkOp.AND) < ambit().throughput_gops(
            BulkOp.AND
        )

    def test_invalid_geometry(self):
        with pytest.raises(ConfigError):
            AmbitSystem("x", timing=ambit().timing, banks=0, row_bytes=8192)


class TestFigure9:
    @pytest.fixture(scope="class")
    def result(self):
        return figure9_experiment()

    def test_ordering_matches_paper(self, result):
        # Skylake < GTX745 < HMC < Ambit < Ambit-3D on mean throughput.
        means = [result.mean(n) for n in
                 ("Skylake", "GTX745", "HMC 2.0", "Ambit", "Ambit-3D")]
        assert all(a < b for a, b in zip(means, means[1:]))

    def test_ambit_vs_skylake_in_paper_regime(self, result):
        # Paper: 44.9X; accept the band the calibration note documents.
        assert 35.0 <= result.speedup("Ambit", "Skylake") <= 60.0

    def test_ambit_vs_hmc(self, result):
        # Paper: 2.4X.
        assert 2.0 <= result.speedup("Ambit", "HMC 2.0") <= 3.5

    def test_ambit3d_vs_hmc(self, result):
        # Paper: 9.7X.
        assert 8.0 <= result.speedup("Ambit-3D", "HMC 2.0") <= 13.0

    def test_hmc_vs_skylake_matches_paper_closely(self, result):
        # This ratio pins the calibration: 18.5X.
        assert result.speedup("HMC 2.0", "Skylake") == pytest.approx(18.5, rel=0.05)

    def test_hmc_vs_gpu_matches_paper_closely(self, result):
        assert result.speedup("HMC 2.0", "GTX745") == pytest.approx(13.1, rel=0.05)

    def test_all_ops_covered(self, result):
        for name in result.systems:
            assert set(result.throughput[name]) == set(FIGURE9_OPS)

    def test_format(self, result):
        text = format_figure9(result)
        assert "Ambit-3D" in text and "paper" in text


class TestFunctionalCrossCheck:
    @pytest.mark.parametrize("op", [BulkOp.AND, BulkOp.NOT, BulkOp.XOR])
    def test_functional_device_matches_analytical_model(self, op):
        geo = small_test_geometry(
            rows=24, row_bytes=8192, banks=4, subarrays_per_bank=1
        )
        device = AmbitDevice(geometry=geo)
        measured = measure_ambit_functional(device, op, rows_per_bank=2)
        model = AmbitSystem(
            "check", timing=device.timing, banks=4, row_bytes=8192
        )
        assert measured == pytest.approx(model.throughput_gops(op), rel=1e-6)

    def test_accounted_throughput_is_pinned(self):
        """AND on 8 rows per bank over 8 banks of 512 B rows (2 subarrays
        of 32 rows each).  Accounted throughput scales exactly with row
        size: this is 5349.877551020408 GOPS x 512 / 131072."""
        geometry = DramGeometry(
            banks=8,
            subarrays_per_bank=2,
            subarray=SubarrayGeometry(rows=32, row_bytes=512),
        )
        gops, _ = measure_ambit_batched(
            AmbitDevice(geometry=geometry), BulkOp.AND, rows_per_bank=8
        )
        assert gops == 20.897959183673468
