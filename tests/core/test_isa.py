"""The bbop ISA: offload checks and CPU fallback (Sections 5.4.1/5.4.3)."""

import numpy as np
import pytest

from repro.core.device import AmbitDevice
from repro.core.isa import (
    BbopInstruction,
    execute_bbop,
    is_offloadable,
    read_bytes,
    write_bytes,
)
from repro.core.microprograms import BulkOp
from repro.dram.geometry import small_test_geometry
from repro.errors import AlignmentError

GEO = small_test_geometry(rows=24, row_bytes=64, banks=2, subarrays_per_bank=2)
ROW = GEO.row_bytes


@pytest.fixture
def device():
    return AmbitDevice(geometry=GEO)


@pytest.fixture
def rng():
    return np.random.default_rng(4)


def _fill(device, address, size, rng):
    data = rng.integers(0, 256, size=size, dtype=np.uint8)
    write_bytes(device, address, data)
    return data


class TestOffloadCheck:
    def test_aligned_row_multiple_offloads(self):
        instr = BbopInstruction(BulkOp.AND, dst=0, src1=ROW, src2=2 * ROW, size=ROW)
        assert is_offloadable(instr, ROW)

    def test_unaligned_source_falls_back(self):
        instr = BbopInstruction(BulkOp.AND, dst=0, src1=ROW + 8, src2=2 * ROW, size=ROW)
        assert not is_offloadable(instr, ROW)

    def test_unaligned_destination_falls_back(self):
        instr = BbopInstruction(BulkOp.AND, dst=4, src1=ROW, src2=2 * ROW, size=ROW)
        assert not is_offloadable(instr, ROW)

    def test_partial_row_falls_back(self):
        instr = BbopInstruction(BulkOp.AND, dst=0, src1=ROW, src2=2 * ROW, size=ROW // 2)
        assert not is_offloadable(instr, ROW)

    def test_arity_validated(self):
        with pytest.raises(AlignmentError):
            BbopInstruction(BulkOp.NOT, dst=0, src1=ROW, src2=2 * ROW, size=ROW)
        with pytest.raises(AlignmentError):
            BbopInstruction(BulkOp.AND, dst=0, src1=ROW, size=ROW)
        with pytest.raises(AlignmentError):  # a bbop names two sources
            BbopInstruction(BulkOp.MAJ, dst=0, src1=ROW, src2=2 * ROW, size=ROW)

    def test_size_validated(self):
        with pytest.raises(AlignmentError):
            BbopInstruction(BulkOp.NOT, dst=0, src1=ROW, size=0)


class TestExecution:
    def test_offloaded_result_correct(self, device, rng):
        a = _fill(device, ROW, ROW, rng)
        b = _fill(device, 2 * ROW, ROW, rng)
        outcome = execute_bbop(
            device, BbopInstruction(BulkOp.AND, dst=0, src1=ROW, src2=2 * ROW, size=ROW)
        )
        assert outcome.offloaded and outcome.rows_processed == 1
        assert np.array_equal(read_bytes(device, 0, ROW), a & b)

    def test_multi_row_offload(self, device, rng):
        size = 2 * ROW
        a = _fill(device, 2 * ROW, size, rng)
        b = _fill(device, 4 * ROW, size, rng)
        outcome = execute_bbop(
            device,
            BbopInstruction(BulkOp.XOR, dst=0, src1=2 * ROW, src2=4 * ROW, size=size),
        )
        assert outcome.offloaded and outcome.rows_processed == 2
        assert np.array_equal(read_bytes(device, 0, size), a ^ b)

    def test_cpu_fallback_result_correct(self, device, rng):
        # Misaligned by one word: the CPU path must produce the same
        # answer.
        a = _fill(device, ROW + 8, ROW, rng)
        b = _fill(device, 3 * ROW + 8, ROW, rng)
        outcome = execute_bbop(
            device,
            BbopInstruction(
                BulkOp.OR, dst=8, src1=ROW + 8, src2=3 * ROW + 8, size=ROW
            ),
        )
        assert not outcome.offloaded
        assert np.array_equal(read_bytes(device, 8, ROW), a | b)

    def test_fallback_sub_row_size(self, device, rng):
        a = _fill(device, ROW, 16, rng)
        outcome = execute_bbop(
            device, BbopInstruction(BulkOp.NOT, dst=0, src1=ROW, size=16)
        )
        assert not outcome.offloaded
        assert np.array_equal(read_bytes(device, 0, 16), ~a)

    def test_offload_stages_cross_subarray_operands(self, device, rng):
        # Choose rows that the flat map puts in different subarrays.
        per_sub = GEO.subarray.data_rows
        src_row = per_sub  # first row of subarray 1
        a = _fill(device, 0 * ROW, ROW, rng)
        b = _fill(device, src_row * ROW, ROW, rng)
        outcome = execute_bbop(
            device,
            BbopInstruction(
                BulkOp.AND, dst=ROW, src1=0, src2=src_row * ROW, size=ROW
            ),
        )
        assert outcome.offloaded and outcome.staged
        assert np.array_equal(read_bytes(device, ROW, ROW), a & b)

    def test_every_op_via_fallback_matches_offload(self, device, rng):
        for op in (BulkOp.AND, BulkOp.OR, BulkOp.XOR, BulkOp.NAND,
                   BulkOp.NOR, BulkOp.XNOR):
            a = _fill(device, ROW, ROW, rng)
            b = _fill(device, 2 * ROW, ROW, rng)
            execute_bbop(
                device,
                BbopInstruction(op, dst=0, src1=ROW, src2=2 * ROW, size=ROW),
            )
            offloaded = read_bytes(device, 0, ROW)
            # Re-run through the CPU path at a misaligned destination.
            _fill(device, 3 * ROW, 8, rng)  # noise
            execute_bbop(
                device,
                BbopInstruction(
                    op, dst=3 * ROW + 8, src1=ROW, src2=2 * ROW, size=ROW - 8
                ),
            )
            fallback = read_bytes(device, 3 * ROW + 8, ROW - 8)
            assert np.array_equal(offloaded[: ROW - 8], fallback), op


class TestByteAccess:
    def test_roundtrip(self, device, rng):
        data = rng.integers(0, 256, size=3 * ROW + 24, dtype=np.uint8)
        write_bytes(device, 40, data)
        assert np.array_equal(read_bytes(device, 40, data.size), data)

    def test_unaligned_crossing_rows(self, device, rng):
        data = rng.integers(0, 256, size=ROW, dtype=np.uint8)
        write_bytes(device, ROW - 8, data)
        assert np.array_equal(read_bytes(device, ROW - 8, ROW), data)
