"""The assembled Ambit device: functional correctness of every bulk op."""

import numpy as np
import pytest

from repro.core.device import AmbitDevice
from repro.core.microprograms import BulkOp
from repro.dram.chip import RowLocation
from repro.dram.geometry import small_test_geometry
from repro.errors import AddressError, DramProtocolError

GEO = small_test_geometry(rows=24, row_bytes=64, banks=2, subarrays_per_bank=2)
WORDS = GEO.subarray.words_per_row

REFERENCE = {
    BulkOp.NOT: lambda a, b: ~a,
    BulkOp.COPY: lambda a, b: a,
    BulkOp.AND: lambda a, b: a & b,
    BulkOp.OR: lambda a, b: a | b,
    BulkOp.NAND: lambda a, b: ~(a & b),
    BulkOp.NOR: lambda a, b: ~(a | b),
    BulkOp.XOR: lambda a, b: a ^ b,
    BulkOp.XNOR: lambda a, b: ~(a ^ b),
}


@pytest.fixture
def device():
    return AmbitDevice(geometry=GEO)


@pytest.fixture
def rng():
    return np.random.default_rng(99)


def _row(rng):
    return rng.integers(0, 2**64, size=WORDS, dtype=np.uint64)


def loc(address, bank=0, subarray=0):
    return RowLocation(bank=bank, subarray=subarray, address=address)


class TestBulkOpsBitExact:
    @pytest.mark.parametrize("op", list(REFERENCE))
    def test_matches_reference(self, device, rng, op):
        a, b = _row(rng), _row(rng)
        device.write_row(loc(0), a)
        device.write_row(loc(1), b)
        device.bbop_row(op, loc(2), loc(0), None if op.arity == 1 else loc(1))
        expected = REFERENCE[op](a, b)
        assert np.array_equal(device.read_row(loc(2)), expected), op

    @pytest.mark.parametrize("op", [BulkOp.AND, BulkOp.XOR, BulkOp.NAND])
    def test_sources_preserved(self, device, rng, op):
        # Ambit's whole point of using designated rows (issue 3).
        a, b = _row(rng), _row(rng)
        device.write_row(loc(0), a)
        device.write_row(loc(1), b)
        device.bbop_row(op, loc(2), loc(0), loc(1))
        assert np.array_equal(device.read_row(loc(0)), a)
        assert np.array_equal(device.read_row(loc(1)), b)

    @pytest.mark.parametrize("op", [BulkOp.AND, BulkOp.OR, BulkOp.XOR])
    def test_works_in_every_subarray(self, device, rng, op):
        for bank in range(GEO.banks):
            for sub in range(GEO.subarrays_per_bank):
                a, b = _row(rng), _row(rng)
                device.write_row(loc(0, bank, sub), a)
                device.write_row(loc(1, bank, sub), b)
                device.bbop_row(
                    op, loc(2, bank, sub), loc(0, bank, sub), loc(1, bank, sub)
                )
                assert np.array_equal(
                    device.read_row(loc(2, bank, sub)), REFERENCE[op](a, b)
                )

    def test_in_place_destination(self, device, rng):
        # dst may alias a source: Dk = Dk and Dj.
        a, b = _row(rng), _row(rng)
        device.write_row(loc(0), a)
        device.write_row(loc(1), b)
        device.bbop_row(BulkOp.AND, loc(0), loc(0), loc(1))
        assert np.array_equal(device.read_row(loc(0)), a & b)

    def test_same_row_both_sources(self, device, rng):
        a = _row(rng)
        device.write_row(loc(0), a)
        device.bbop_row(BulkOp.XOR, loc(2), loc(0), loc(0))
        assert np.array_equal(device.read_row(loc(2)), np.zeros_like(a))

    def test_chained_ops(self, device, rng):
        # (a & b) | ~c, composed from three bulk ops.
        a, b, c = _row(rng), _row(rng), _row(rng)
        for i, v in enumerate((a, b, c)):
            device.write_row(loc(i), v)
        device.bbop_row(BulkOp.AND, loc(3), loc(0), loc(1))
        device.bbop_row(BulkOp.NOT, loc(4), loc(2))
        device.bbop_row(BulkOp.OR, loc(5), loc(3), loc(4))
        assert np.array_equal(device.read_row(loc(5)), (a & b) | ~c)


class TestControlRows:
    def test_c0_initialised_to_zeros(self, device):
        amap = device.amap
        for bank in device.chip.banks:
            for sub in bank.subarrays:
                assert (sub.peek(amap.row_c0) == 0).all()

    def test_c1_initialised_to_ones(self, device):
        amap = device.amap
        for bank in device.chip.banks:
            for sub in bank.subarrays:
                assert (sub.peek(amap.row_c1) == np.uint64(2**64 - 1)).all()

    def test_control_rows_usable_as_operands(self, device, rng):
        # a AND C1 == a; a OR C1 == ones.
        a = _row(rng)
        device.write_row(loc(0), a)
        device.controller.bbop(
            BulkOp.AND, 0, 0, 2, 0, device.amap.c(1)
        )
        assert np.array_equal(device.read_row(loc(2)), a)


class TestValidationAndAccounting:
    def test_cross_subarray_rejected(self, device, rng):
        device.write_row(loc(0), _row(rng))
        with pytest.raises(AddressError):
            device.bbop_row(BulkOp.AND, loc(2), loc(0), loc(1, subarray=1))

    def test_open_bank_rejected(self, device):
        device.chip.activate(0, 0, 0)
        with pytest.raises(DramProtocolError):
            device.controller.bbop(BulkOp.AND, 0, 0, 2, 0, 1)

    def test_stats_accumulate(self, device, rng):
        device.write_row(loc(0), _row(rng))
        device.write_row(loc(1), _row(rng))
        device.bbop_row(BulkOp.AND, loc(2), loc(0), loc(1))
        stats = device.controller.stats
        assert stats.aap_count == 4
        assert stats.ops[BulkOp.AND] == 1
        assert stats.busy_ns == pytest.approx(4 * 49.0)

    def test_bank_parallel_makespan(self, device, rng):
        # The same work on two banks completes in the single-bank time.
        for bank in (0, 1):
            device.write_row(loc(0, bank), _row(rng))
            device.write_row(loc(1, bank), _row(rng))
            device.bbop_row(BulkOp.AND, loc(2, bank), loc(0, bank), loc(1, bank))
        assert device.elapsed_ns == pytest.approx(4 * 49.0)
        assert device.busy_ns == pytest.approx(2 * 4 * 49.0)

    def test_reset_stats(self, device, rng):
        device.write_row(loc(0), _row(rng))
        device.bbop_row(BulkOp.NOT, loc(2), loc(0))
        device.reset_stats()
        assert device.elapsed_ns == 0.0
        assert len(device.chip.trace) == 0

    def test_psm_copy_between_banks(self, device, rng):
        data = _row(rng)
        device.write_row(loc(0, bank=0), data)
        device.psm_copy(loc(0, bank=0), loc(5, bank=1))
        assert np.array_equal(device.read_row(loc(5, bank=1)), data)
        assert device.controller.stats.busy_ns > 0

    def test_split_decoder_ablation(self, rng):
        fast = AmbitDevice(geometry=GEO, split_decoder=True)
        slow = AmbitDevice(geometry=GEO, split_decoder=False)
        for device in (fast, slow):
            device.write_row(loc(0), _row(rng))
            device.write_row(loc(1), _row(rng))
            device.bbop_row(BulkOp.AND, loc(2), loc(0), loc(1))
        assert slow.elapsed_ns == pytest.approx(4 * 80.0)
        assert fast.elapsed_ns == pytest.approx(4 * 49.0)
