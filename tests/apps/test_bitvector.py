"""Device-backed BitVector API."""

import numpy as np
import pytest

from repro.apps.bitvector import AmbitBitSystem
from repro.compile import compile_expr, parse_expr
from repro.core.microprograms import BulkOp
from repro.dram.geometry import small_test_geometry
from repro.errors import AllocationError

GEO = small_test_geometry(rows=32, row_bytes=64, banks=2, subarrays_per_bank=2)
ROW_BITS = GEO.subarray.row_bits  # 512


@pytest.fixture
def system():
    return AmbitBitSystem(geometry=GEO)


@pytest.fixture
def rng():
    return np.random.default_rng(31)


class TestRoundTrip:
    def test_row_aligned(self, system, rng):
        bits = rng.random(2 * ROW_BITS) < 0.5
        v = system.from_bits(bits)
        assert np.array_equal(v.to_bits(), bits)

    def test_unaligned_size(self, system, rng):
        bits = rng.random(ROW_BITS + 37) < 0.5
        v = system.from_bits(bits)
        assert np.array_equal(v.to_bits(), bits)
        assert v.handle.num_rows == 2

    def test_popcount(self, system, rng):
        bits = rng.random(777) < 0.3
        v = system.from_bits(bits)
        assert v.popcount() == int(bits.sum())

    def test_size_mismatch_rejected(self, system, rng):
        v = system.bitvector(100)
        with pytest.raises(AllocationError):
            v.set_bits(np.zeros(101, dtype=bool))


class TestOperators:
    def test_and_or_xor(self, system, rng):
        n = ROW_BITS + 100
        ba = rng.random(n) < 0.5
        bb = rng.random(n) < 0.5
        a = system.from_bits(ba)
        b = system.from_bits(bb, like=a)
        assert np.array_equal((a & b).to_bits(), ba & bb)
        assert np.array_equal((a | b).to_bits(), ba | bb)
        assert np.array_equal((a ^ b).to_bits(), ba ^ bb)

    def test_invert_clears_padding(self, system, rng):
        n = ROW_BITS // 2 + 3  # partial final row
        ba = rng.random(n) < 0.5
        a = system.from_bits(ba)
        inv = ~a
        assert np.array_equal(inv.to_bits(), ~ba)
        assert inv.popcount() == int((~ba).sum())

    def test_nand_nor_xnor(self, system, rng):
        n = 300
        ba = rng.random(n) < 0.5
        bb = rng.random(n) < 0.5
        a = system.from_bits(ba)
        b = system.from_bits(bb, like=a)
        assert np.array_equal(a.nand(b).to_bits(), ~(ba & bb))
        assert np.array_equal(a.nor(b).to_bits(), ~(ba | bb))
        assert np.array_equal(a.xnor(b).to_bits(), ~(ba ^ bb))

    @pytest.mark.parametrize("op", ["not", "nand", "nor", "xnor", "~a"])
    def test_op_into_keeps_the_padding_zero(self, system, rng, op):
        """A direct ``op_into`` whose op maps zeros to ones leaves the
        bits beyond ``nbits`` zero, as the operators do."""
        n = 100  # 412 padding bits in the only row
        ba, bb = rng.random(n) < 0.5, rng.random(n) < 0.5
        a = system.from_bits(ba)
        b = system.from_bits(bb, like=a)
        dst = system.bitvector(n, like=a)
        if op == "~a":
            a.op_into(compile_expr(parse_expr(op)), dst)
            expected = ~ba
        else:
            bulk = BulkOp(op)
            a.op_into(bulk, dst, b if bulk.arity == 2 else None)
            expected = {
                "not": ~ba, "nand": ~(ba & bb), "nor": ~(ba | bb),
                "xnor": ~(ba ^ bb),
            }[op]
        assert np.array_equal(dst.to_bits(), expected)
        row = system.device.read_row(dst.handle.rows[-1])
        bits = np.unpackbits(row.view(np.uint8), bitorder="little")
        assert not bits[n:].any()

    def test_copy(self, system, rng):
        ba = rng.random(ROW_BITS) < 0.5
        a = system.from_bits(ba)
        c = a.copy()
        assert np.array_equal(c.to_bits(), ba)

    def test_operands_survive(self, system, rng):
        ba = rng.random(200) < 0.5
        bb = rng.random(200) < 0.5
        a = system.from_bits(ba)
        b = system.from_bits(bb, like=a)
        _ = a & b
        assert np.array_equal(a.to_bits(), ba)
        assert np.array_equal(b.to_bits(), bb)

    def test_non_colocated_operands_still_correct(self, system, rng):
        # Vectors allocated independently may land in different
        # subarrays; ops stage through scratch rows and stay correct.
        n = 3 * ROW_BITS
        ba = rng.random(n) < 0.5
        bb = rng.random(n) < 0.5
        a = system.from_bits(ba)
        b = system.from_bits(bb)  # no like= -> possibly scattered
        assert np.array_equal((a & b).to_bits(), ba & bb)

    def test_chained_expression(self, system, rng):
        n = 600
        ba, bb, bc = (rng.random(n) < 0.5 for _ in range(3))
        a = system.from_bits(ba)
        b = system.from_bits(bb, like=a)
        c = system.from_bits(bc, like=a)
        result = (a & b) | (~c)
        assert np.array_equal(result.to_bits(), (ba & bb) | ~bc)

    def test_row_count_mismatch_rejected(self, system, rng):
        a = system.from_bits(rng.random(ROW_BITS) < 0.5)
        b = system.from_bits(rng.random(2 * ROW_BITS) < 0.5)
        with pytest.raises(AllocationError):
            _ = a & b


class TestAccounting:
    def test_ops_advance_device_clock(self, system, rng):
        a = system.from_bits(rng.random(100) < 0.5)
        b = system.from_bits(rng.random(100) < 0.5, like=a)
        before = system.elapsed_ns
        _ = a & b
        assert system.elapsed_ns > before

    def test_free_releases_rows(self, system, rng):
        free_before = system.driver.free_rows()
        v = system.from_bits(rng.random(ROW_BITS) < 0.5)
        v.free()
        assert system.driver.free_rows() == free_before

    def test_device_and_geometry_mutually_exclusive(self):
        from repro.core.device import AmbitDevice

        with pytest.raises(AllocationError):
            AmbitBitSystem(device=AmbitDevice(geometry=GEO), geometry=GEO)
