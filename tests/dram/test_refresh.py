"""Refresh scheduling and the Ambit freshness invariant (issue 4)."""

import pytest

from repro.core.addressing import AmbitAddressMap
from repro.core.controller import AmbitController
from repro.core.microprograms import BulkOp
from repro.dram.chip import DramChip
from repro.dram.geometry import small_test_geometry
from repro.dram.refresh import RETENTION_NS, RefreshScheduler, tra_inputs_fresh
from repro.dram.timing import ddr3_1600
from repro.errors import ConfigError

GEO = small_test_geometry(rows=24, row_bytes=64, banks=1, subarrays_per_bank=1)


@pytest.fixture
def chip():
    return DramChip(GEO)


class TestScheduler:
    def test_sweeps_issued(self, chip):
        sched = RefreshScheduler(chip, interval_ns=1000.0)
        assert sched.advance_to(3500.0) == 3

    def test_no_sweep_before_due(self, chip):
        sched = RefreshScheduler(chip, interval_ns=1000.0)
        assert sched.advance_to(999.0) == 0

    def test_clock_advanced(self, chip):
        sched = RefreshScheduler(chip, interval_ns=1000.0)
        sched.advance_to(2500.0)
        assert chip.clock_ns == 2500.0

    def test_rows_restored_at_sweep_time(self, chip):
        sched = RefreshScheduler(chip, interval_ns=1000.0)
        sched.advance_to(1500.0)
        sub = chip.bank(0).subarray(0)
        assert (sub.last_restore_ns == 1000.0).all()

    def test_bad_interval(self, chip):
        with pytest.raises(ConfigError):
            RefreshScheduler(chip, interval_ns=0.0)


class TestAmbitFreshnessInvariant:
    def test_copies_before_tra_refresh_designated_rows(self):
        """Section 3.3: the operand copies performed immediately before a
        TRA leave the designated rows effectively fully refreshed, even
        if the rest of the device is near the retention limit."""
        from repro.core.device import AmbitDevice

        device = AmbitDevice(geometry=GEO, timing=ddr3_1600())
        amap = AmbitAddressMap(GEO.subarray)
        # Let the whole device age to just under the retention window.
        device.chip.clock_ns = RETENTION_NS * 0.99
        device.controller.bbop(BulkOp.AND, 0, 0, 2, 0, 1)
        designated = [amap.row_t(0), amap.row_t(1), amap.row_t(2)]
        assert tra_inputs_fresh(device.chip, 0, 0, designated)
        # The designated rows were restored within microseconds of "now",
        # i.e. 5-6 orders of magnitude inside the 64 ms window.
        sub = device.chip.bank(0).subarray(0)
        now = device.chip.clock_ns
        for row in designated:
            assert sub.age_ns(row, now) < 1e4  # < 10 us
