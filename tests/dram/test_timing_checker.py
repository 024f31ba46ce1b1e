"""Timing-constraint validation of command streams."""

import numpy as np
import pytest

from repro.core.device import AmbitDevice
from repro.core.microprograms import BulkOp
from repro.dram.chip import RowLocation
from repro.dram.commands import IssuedCommand, activate, precharge, read
from repro.dram.geometry import small_test_geometry
from repro.dram.timing import ddr3_1600
from repro.dram.timing_checker import (
    TimedCommand,
    TimingChecker,
    schedule_aap_stream,
)
from repro.errors import DramProtocolError

T = ddr3_1600()


def _tc(time, cmd, onto_open=False, wordlines=1):
    return TimedCommand(
        time,
        IssuedCommand(cmd, wordlines_raised=wordlines, onto_open_row=onto_open),
    )


class TestConstraints:
    def test_legal_access_sequence(self):
        stream = [
            _tc(0.0, activate(0, 0, 1)),
            _tc(T.tRCD, read(0, 0, 0)),
            _tc(T.tRAS, precharge(0)),
            _tc(T.tRAS + T.tRP, activate(0, 0, 2)),
        ]
        assert TimingChecker(T, strict=False).check(stream) == []

    def test_tras_violation(self):
        stream = [
            _tc(0.0, activate(0, 0, 1)),
            _tc(T.tRAS - 5.0, precharge(0)),
        ]
        with pytest.raises(DramProtocolError):
            TimingChecker(T).check(stream)

    def test_trcd_violation(self):
        stream = [
            _tc(0.0, activate(0, 0, 1)),
            _tc(T.tRCD - 1.0, read(0, 0, 0)),
        ]
        violations = TimingChecker(T, strict=False).check(stream)
        assert [v.constraint for v in violations] == ["tRCD"]

    def test_trp_violation(self):
        stream = [
            _tc(0.0, activate(0, 0, 1)),
            _tc(T.tRAS, precharge(0)),
            _tc(T.tRAS + 2.0, activate(0, 0, 2)),
        ]
        violations = TimingChecker(T, strict=False).check(stream)
        assert [v.constraint for v in violations] == ["tRP"]

    def test_read_without_open_row(self):
        violations = TimingChecker(T, strict=False).check(
            [_tc(0.0, read(0, 0, 0))]
        )
        assert violations[0].constraint == "open-row"

    def test_double_activate_without_aap_flag(self):
        stream = [
            _tc(0.0, activate(0, 0, 1)),
            _tc(10.0, activate(0, 0, 2)),  # not marked onto_open_row
        ]
        violations = TimingChecker(T, strict=False).check(stream)
        assert violations[0].constraint == "bank-open"

    def test_overlapped_activate_legal(self):
        stream = [
            _tc(0.0, activate(0, 0, 1)),
            _tc(T.tAAP_OVERLAP, activate(0, 0, 2), onto_open=True),
            _tc(T.tAAP_OVERLAP + T.tRAS, precharge(0)),
        ]
        assert TimingChecker(T, strict=False).check(stream) == []

    def test_overlapped_activate_too_early(self):
        stream = [
            _tc(0.0, activate(0, 0, 1)),
            _tc(1.0, activate(0, 0, 2), onto_open=True),
        ]
        violations = TimingChecker(T, strict=False).check(stream)
        assert violations[0].constraint == "tAAP"

    def test_banks_tracked_independently(self):
        stream = [
            _tc(0.0, activate(0, 0, 1)),
            _tc(1.0, activate(1, 0, 1)),  # other bank: fine
        ]
        assert TimingChecker(T, strict=False).check(stream) == []

    def test_burst_spacing(self):
        stream = [
            _tc(0.0, activate(0, 0, 1)),
            _tc(T.tRCD, read(0, 0, 0)),
            _tc(T.tRCD + 1.0, read(0, 0, 1)),  # < tBL apart
        ]
        violations = TimingChecker(T, strict=False).check(stream)
        assert violations[0].constraint == "tCCD"


class TestAmbitSchedules:
    """The controller's AAP schedules form legal command timelines."""

    @pytest.mark.parametrize(
        "op", [BulkOp.NOT, BulkOp.AND, BulkOp.NAND, BulkOp.XOR, BulkOp.XNOR]
    )
    def test_bulk_op_trace_times_cleanly(self, op):
        geo = small_test_geometry(rows=24, row_bytes=64, banks=1,
                                  subarrays_per_bank=1)
        device = AmbitDevice(geometry=geo)
        rng = np.random.default_rng(0)
        words = geo.subarray.words_per_row
        device.write_row(RowLocation(0, 0, 0),
                         rng.integers(0, 2**63, size=words, dtype=np.uint64))
        device.write_row(RowLocation(0, 0, 1),
                         rng.integers(0, 2**63, size=words, dtype=np.uint64))
        device.reset_stats()
        with device.chip.trace.capture() as issued:
            device.bbop_row(
                op, RowLocation(0, 0, 2), RowLocation(0, 0, 0),
                None if op.arity == 1 else RowLocation(0, 0, 1),
            )
        stream = schedule_aap_stream(issued, device.timing)
        assert TimingChecker(device.timing, strict=False).check(stream) == []

    def test_schedule_duration_matches_latency_model(self):
        # The reconstructed timeline of an AND ends at ~4 AAP latencies.
        geo = small_test_geometry(rows=24, row_bytes=64, banks=1,
                                  subarrays_per_bank=1)
        device = AmbitDevice(geometry=geo)
        device.write_row(RowLocation(0, 0, 0),
                         np.zeros(geo.subarray.words_per_row, dtype=np.uint64))
        device.write_row(RowLocation(0, 0, 1),
                         np.zeros(geo.subarray.words_per_row, dtype=np.uint64))
        device.reset_stats()
        with device.chip.trace.capture() as issued:
            device.bbop_row(BulkOp.AND, RowLocation(0, 0, 2),
                            RowLocation(0, 0, 0), RowLocation(0, 0, 1))
        stream = schedule_aap_stream(issued, device.timing)
        end = max(c.time_ns for c in stream) + device.timing.tRP
        assert end == pytest.approx(4 * device.timing.aap_latency(True))

    def test_naive_schedule_also_legal_but_longer(self):
        geo = small_test_geometry(rows=24, row_bytes=64, banks=1,
                                  subarrays_per_bank=1)
        device = AmbitDevice(geometry=geo, split_decoder=False)
        device.write_row(RowLocation(0, 0, 0),
                         np.zeros(geo.subarray.words_per_row, dtype=np.uint64))
        device.reset_stats()
        with device.chip.trace.capture() as issued:
            device.bbop_row(
                BulkOp.NOT, RowLocation(0, 0, 2), RowLocation(0, 0, 0)
            )
        stream = schedule_aap_stream(
            issued, device.timing, split_decoder=False
        )
        assert TimingChecker(device.timing, strict=False).check(stream) == []
        end = max(c.time_ns for c in stream) + device.timing.tRP
        assert end == pytest.approx(2 * device.timing.aap_latency(False))
