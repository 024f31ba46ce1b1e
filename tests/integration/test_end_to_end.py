"""End-to-end integration: whole-stack flows across modules."""

import numpy as np
import pytest

from repro.apps.bitvector import AmbitBitSystem
from repro.circuit import AnalogSenseModel, VariationSpec
from repro.core.device import AmbitDevice
from repro.core.microprograms import BulkOp
from repro.dram.chip import RowLocation
from repro.dram.geometry import DramGeometry, SubarrayGeometry, small_test_geometry
from repro.energy import trace_energy_nj


class TestBitVectorPipeline:
    """A realistic multi-step workload through the public API."""

    def test_query_pipeline(self):
        system = AmbitBitSystem(
            geometry=small_test_geometry(
                rows=32, row_bytes=128, banks=2, subarrays_per_bank=2
            )
        )
        rng = np.random.default_rng(1)
        n = 3000
        active = rng.random(n) < 0.4
        premium = rng.random(n) < 0.2
        flagged = rng.random(n) < 0.1

        with system.device.chip.trace.capture() as issued:
            v_active = system.from_bits(active)
            v_premium = system.from_bits(premium, like=v_active)
            v_flagged = system.from_bits(flagged, like=v_active)

            # active premium users who are not flagged
            eligible = (v_active & v_premium) & (~v_flagged)
        expected = active & premium & ~flagged
        assert np.array_equal(eligible.to_bits(), expected)
        assert eligible.popcount() == int(expected.sum())

        # Device accounting is live: commands were really issued.
        acts, pres, _, _ = system.device.chip.trace.counts()
        assert acts > 0 and pres > 0
        assert system.elapsed_ns > 0
        assert trace_energy_nj(issued, system.device.row_bytes) > 0


class TestAnalogDevice:
    """The full device with the circuit-level model plugged in."""

    GEO = small_test_geometry(rows=24, row_bytes=64, banks=1, subarrays_per_bank=1)

    def _device(self, level, seed=5):
        return AmbitDevice(
            geometry=self.GEO,
            charge_model_factory=lambda: AnalogSenseModel(
                VariationSpec(level=level), np.random.default_rng(seed)
            ),
        )

    def test_reliable_at_low_variation(self):
        device = self._device(0.05)
        rng = np.random.default_rng(2)
        words = self.GEO.subarray.words_per_row
        a = rng.integers(0, 2**63, size=words, dtype=np.uint64)
        b = rng.integers(0, 2**63, size=words, dtype=np.uint64)
        device.write_row(RowLocation(0, 0, 0), a)
        device.write_row(RowLocation(0, 0, 1), b)
        device.bbop_row(BulkOp.AND, RowLocation(0, 0, 2), RowLocation(0, 0, 0),
                        RowLocation(0, 0, 1))
        assert np.array_equal(device.read_row(RowLocation(0, 0, 2)), a & b)

    def test_errors_appear_at_high_variation(self):
        device = self._device(0.25)
        rng = np.random.default_rng(2)
        words = self.GEO.subarray.words_per_row
        a = rng.integers(0, 2**63, size=words, dtype=np.uint64)
        b = rng.integers(0, 2**63, size=words, dtype=np.uint64)
        device.write_row(RowLocation(0, 0, 0), a)
        device.write_row(RowLocation(0, 0, 1), b)
        device.bbop_row(BulkOp.AND, RowLocation(0, 0, 2), RowLocation(0, 0, 0),
                        RowLocation(0, 0, 1))
        got = device.read_row(RowLocation(0, 0, 2))
        wrong_bits = int(
            sum(int(x).bit_count() for x in np.asarray(got ^ (a & b)))
        )
        assert wrong_bits > 0  # Table 2 territory

    def test_not_unaffected_by_variation(self):
        # Section 6: "Ambit-NOT always works as expected and is not
        # affected by process variation" -- it involves no TRA.
        device = self._device(0.25)
        rng = np.random.default_rng(3)
        words = self.GEO.subarray.words_per_row
        a = rng.integers(0, 2**63, size=words, dtype=np.uint64)
        device.write_row(RowLocation(0, 0, 0), a)
        device.bbop_row(BulkOp.NOT, RowLocation(0, 0, 2), RowLocation(0, 0, 0))
        assert np.array_equal(device.read_row(RowLocation(0, 0, 2)), ~a)


class TestPaperConfiguration:
    """The full-size paper geometry works (just slower)."""

    def test_full_size_device_single_op(self):
        geo = DramGeometry(
            banks=8,
            subarrays_per_bank=1,
            subarray=SubarrayGeometry(rows=1024, row_bytes=8192),
        )
        device = AmbitDevice(geometry=geo)
        rng = np.random.default_rng(4)
        a = rng.integers(0, 2**63, size=1024, dtype=np.uint64)
        b = rng.integers(0, 2**63, size=1024, dtype=np.uint64)
        device.write_row(RowLocation(0, 0, 0), a)
        device.write_row(RowLocation(0, 0, 1), b)
        device.bbop_row(BulkOp.XOR, RowLocation(0, 0, 2), RowLocation(0, 0, 0),
                        RowLocation(0, 0, 1))
        assert np.array_equal(device.read_row(RowLocation(0, 0, 2)), a ^ b)
        # 5 AAPs + 2 APs at DDR3-1600.
        assert device.elapsed_ns == pytest.approx(5 * 49.0 + 2 * 45.0)

    def test_one_bulk_op_moves_zero_bytes_over_channel(self):
        geo = DramGeometry(banks=1, subarrays_per_bank=1)
        device = AmbitDevice(geometry=geo)
        rng = np.random.default_rng(5)
        a = rng.integers(0, 2**63, size=1024, dtype=np.uint64)
        device.write_row(RowLocation(0, 0, 0), a)
        device.write_row(RowLocation(0, 0, 1), a)
        device.reset_stats()
        device.bbop_row(BulkOp.AND, RowLocation(0, 0, 2), RowLocation(0, 0, 0),
                        RowLocation(0, 0, 1))
        _, _, reads, writes = device.chip.trace.counts()
        assert reads == 0 and writes == 0  # the whole point of Ambit
