"""Manufacturing test, binning, and spare-row repair (Section 5.5.3)."""

import numpy as np
import pytest

from repro.circuit import AnalogSenseModel, VariationSpec
from repro.core.addressing import AmbitAddressMap
from repro.core.device import AmbitDevice
from repro.core.microprograms import BulkOp
from repro.core.repair import RepairMap, RepairedRowDecoder
from repro.core.testing import (
    ChipBin,
    bin_chip,
    run_chip_test,
)
from repro.dram.chip import RowLocation
from repro.dram.geometry import small_test_geometry
from repro.dram.subarray import Subarray
from repro.errors import AddressError

GEO = small_test_geometry(rows=24, row_bytes=64, banks=2, subarrays_per_bank=2)


class TestChipTest:
    def test_healthy_chip_bins_ambit(self):
        device = AmbitDevice(geometry=GEO)
        report = run_chip_test(device)
        assert report.data_rows_ok and report.ambit_ok
        assert bin_chip(report) == ChipBin.AMBIT

    def test_tra_failures_bin_regular_dram(self):
        # Severe variation: TRAs misbehave, but plain row access and the
        # DCC path still work -> sellable as regular DRAM.
        device = AmbitDevice(
            geometry=GEO,
            charge_model_factory=lambda: AnalogSenseModel(
                VariationSpec(level=0.25), np.random.default_rng(3)
            ),
        )
        report = run_chip_test(device)
        assert report.data_rows_ok
        assert not report.ambit_ok
        assert bin_chip(report) == ChipBin.REGULAR_DRAM
        failing = [s for s in report.subarrays if not s.tra_ok]
        assert failing and all("TRA" in s.failures[0] for s in failing)

    def test_reports_cover_every_subarray(self):
        device = AmbitDevice(geometry=GEO)
        report = run_chip_test(device)
        assert len(report.subarrays) == GEO.banks * GEO.subarrays_per_bank

    def test_low_variation_chip_still_bins_ambit(self):
        device = AmbitDevice(
            geometry=GEO,
            charge_model_factory=lambda: AnalogSenseModel(
                VariationSpec(level=0.05), np.random.default_rng(4)
            ),
        )
        assert bin_chip(run_chip_test(device)) == ChipBin.AMBIT


class TestRepairMap:
    def test_assign_and_translate(self):
        rm = RepairMap(spares=(20, 21))
        spare = rm.assign(3)
        assert spare == 20
        assert rm.translate(3) == 20
        assert rm.translate(4) == 4

    def test_assign_idempotent(self):
        rm = RepairMap(spares=(20, 21))
        assert rm.assign(3) == rm.assign(3)

    def test_spares_exhausted(self):
        rm = RepairMap(spares=(20,))
        rm.assign(1)
        with pytest.raises(AddressError):
            rm.assign(2)

    def test_cannot_repair_spare_with_itself(self):
        rm = RepairMap(spares=(20,))
        with pytest.raises(AddressError):
            rm.assign(20)


class TestRepairedDecoder:
    def test_single_row_repair(self):
        amap = AmbitAddressMap(GEO.subarray)
        rm = RepairMap(spares=(GEO.subarray.data_rows - 1,))
        spare = rm.assign(2)
        decoder = RepairedRowDecoder(amap.build_decoder(), rm)
        assert decoder.decode(2)[0].row == spare
        assert decoder.decode(3)[0].row == 3

    def test_bgroup_fanout_repaired_consistently(self):
        # Repairing T0's storage row must redirect B0, B8, B11, B12,
        # B15 -- every address whose fan-out includes T0.
        amap = AmbitAddressMap(GEO.subarray)
        rm = RepairMap(spares=(GEO.subarray.data_rows - 1,))
        spare = rm.assign(amap.row_t(0))
        decoder = RepairedRowDecoder(amap.build_decoder(), rm)
        for b_index in (0, 8, 11, 12, 15):
            rows = [wl.row for wl in decoder.decode(amap.b(b_index))]
            assert spare in rows
            assert amap.row_t(0) not in rows

    def test_negation_preserved(self):
        amap = AmbitAddressMap(GEO.subarray)
        rm = RepairMap(spares=(GEO.subarray.data_rows - 1,))
        rm.assign(amap.row_dcc(0))
        decoder = RepairedRowDecoder(amap.build_decoder(), rm)
        wl = decoder.decode(amap.b(5))[0]  # DCC0 n-wordline
        assert wl.negated is True

    def test_repaired_subarray_computes_correctly(self):
        # End to end: build a subarray whose T1 is remapped to a spare;
        # an AND still produces the right result (the faulty row is
        # never touched).
        amap = AmbitAddressMap(GEO.subarray)
        faulty = amap.row_t(1)
        rm = RepairMap(spares=(GEO.subarray.data_rows - 1,))
        spare = rm.assign(faulty)
        sub = Subarray(
            GEO.subarray, decoder=RepairedRowDecoder(amap.build_decoder(), rm)
        )
        rng = np.random.default_rng(5)
        words = GEO.subarray.words_per_row
        a = rng.integers(0, 2**63, size=words, dtype=np.uint64)
        b = rng.integers(0, 2**63, size=words, dtype=np.uint64)
        sub.poke(0, a)
        sub.poke(1, b)
        sub.poke(amap.row_c0, np.zeros(words, dtype=np.uint64))
        # Simulate a stuck-at fault in the faulty physical row: poison
        # it; the decoder must never read it back.
        sub.poke(faulty, np.full(words, np.uint64(0xDEADDEADDEADDEAD)))

        def aap(a1, a2):
            sub.activate(a1)
            sub.activate(a2)
            sub.precharge()

        aap(0, amap.b(0))             # T0 = a
        aap(1, amap.b(1))             # T1 (-> spare) = b
        aap(amap.c(0), amap.b(2))     # T2 = 0
        aap(amap.b(12), 2)            # D2 = a & b
        assert np.array_equal(sub.peek(2), a & b)
        assert np.array_equal(sub.peek(spare), a & b)  # TRA restored it


class TestFaultRepairLoop:
    """The full Section 5.5.3 yield flow: fault -> detect -> repair -> retest."""

    def test_stuck_row_detected(self):
        from repro.core.testing import inject_stuck_row

        device = AmbitDevice(geometry=GEO)
        inject_stuck_row(device, bank=0, subarray=1, storage_row=0)
        report = run_chip_test(device)
        bad = [s for s in report.subarrays
               if (s.bank, s.subarray) == (0, 1)][0]
        assert not bad.data_rows_ok
        assert 0 in bad.failed_data_rows
        assert bin_chip(report) == ChipBin.REJECT

    def test_repair_restores_ambit_binning(self):
        from repro.core.testing import inject_stuck_row, repair_chip

        device = AmbitDevice(geometry=GEO)
        inject_stuck_row(device, bank=1, subarray=0, storage_row=0)
        first = run_chip_test(device)
        assert bin_chip(first) == ChipBin.REJECT

        repaired = repair_chip(device, first)
        assert repaired == 1
        second = run_chip_test(device)
        assert bin_chip(second) == ChipBin.AMBIT

    def test_repaired_row_computes_correctly(self):
        from repro.core.testing import inject_stuck_row, repair_chip
        from repro.core.microprograms import BulkOp

        device = AmbitDevice(geometry=GEO)
        inject_stuck_row(device, bank=0, subarray=0, storage_row=0)
        report = run_chip_test(device)
        repair_chip(device, report)

        # Write operands through the command path (repair lives in the
        # decoder, which the command path honours).
        rng = np.random.default_rng(9)
        words = GEO.subarray.words_per_row
        a = rng.integers(0, 2**63, size=words, dtype=np.uint64)
        b = rng.integers(0, 2**63, size=words, dtype=np.uint64)
        bank = device.chip.bank(0)
        for row, value in ((0, a), (1, b)):
            device.chip.activate(0, 0, row)
            bank.write_open_row(value)
            device.chip.precharge(0)
        device.controller.bbop(BulkOp.AND, 0, 0, 2, 0, 1)
        device.chip.activate(0, 0, 2)
        result = bank.read_open_row()
        device.chip.precharge(0)
        assert np.array_equal(result, a & b)

    def test_many_faults_exhaust_spares(self):
        from repro.core.repair import RepairMap
        from repro.errors import AddressError

        spares = tuple(
            range(GEO.subarray.data_rows + 8, GEO.subarray.storage_rows)
        )
        rm = RepairMap(spares=spares)
        for i in range(len(spares)):
            rm.assign(i)
        with pytest.raises(AddressError):
            rm.assign(len(spares))
