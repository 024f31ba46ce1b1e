"""Stress tests: randomised operation streams against the full stack.

The invariants: the device never corrupts data it was not asked to
touch, every operation's result matches numpy, protocol violations are
always raised (never silent), and allocator bookkeeping stays exact
under churn.
"""

import numpy as np
import pytest

from repro.apps.bitvector import AmbitBitSystem
from repro.core.device import AmbitDevice
from repro.core.microprograms import BulkOp
from repro.dram.chip import RowLocation
from repro.dram.geometry import small_test_geometry
from repro.errors import DramProtocolError

GEO = small_test_geometry(rows=32, row_bytes=128, banks=2, subarrays_per_bank=2)
WORDS = GEO.subarray.words_per_row

TWO_OP = [BulkOp.AND, BulkOp.OR, BulkOp.XOR, BulkOp.NAND, BulkOp.NOR, BulkOp.XNOR]

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


class TestRandomOperationStreams:
    def test_long_random_program(self):
        """500 random ops over a shadowed register file of rows."""
        rng = np.random.default_rng(2024)
        device = AmbitDevice(geometry=GEO)
        n_rows = 8
        shadow = {}
        for bank in range(GEO.banks):
            for sub in range(GEO.subarrays_per_bank):
                for r in range(n_rows):
                    value = rng.integers(0, 2**64, size=WORDS, dtype=np.uint64)
                    device.write_row(RowLocation(bank, sub, r), value)
                    shadow[(bank, sub, r)] = value
        for _ in range(500):
            bank = int(rng.integers(0, GEO.banks))
            sub = int(rng.integers(0, GEO.subarrays_per_bank))
            op = REFERENCE and list(REFERENCE)[int(rng.integers(0, 8))]
            di, dj, dk = (int(x) for x in rng.integers(0, n_rows, size=3))
            if op is BulkOp.COPY and di == dk:
                continue
            loc = lambda r: RowLocation(bank, sub, r)
            device.bbop_row(
                op, loc(dk), loc(di), None if op.arity == 1 else loc(dj)
            )
            shadow[(bank, sub, dk)] = REFERENCE[op](
                shadow[(bank, sub, di)], shadow[(bank, sub, dj)]
            )
            # Spot-check the destination plus one untouched row.
            assert np.array_equal(
                device.read_row(loc(dk)), shadow[(bank, sub, dk)]
            )
        # Full final sweep: every row matches its shadow.
        for (bank, sub, r), value in shadow.items():
            assert np.array_equal(
                device.read_row(RowLocation(bank, sub, r)), value
            )

    def test_interleaved_ops_across_banks_keep_isolation(self):
        rng = np.random.default_rng(7)
        device = AmbitDevice(geometry=GEO)
        a = rng.integers(0, 2**64, size=WORDS, dtype=np.uint64)
        b = rng.integers(0, 2**64, size=WORDS, dtype=np.uint64)
        # Stamp every subarray with distinct data.
        for bank in range(GEO.banks):
            for sub in range(GEO.subarrays_per_bank):
                device.write_row(RowLocation(bank, sub, 0), a + np.uint64(bank))
                device.write_row(RowLocation(bank, sub, 1), b + np.uint64(sub))
        for bank in range(GEO.banks):
            for sub in range(GEO.subarrays_per_bank):
                device.bbop_row(
                    BulkOp.XOR,
                    RowLocation(bank, sub, 2),
                    RowLocation(bank, sub, 0),
                    RowLocation(bank, sub, 1),
                )
        for bank in range(GEO.banks):
            for sub in range(GEO.subarrays_per_bank):
                expected = (a + np.uint64(bank)) ^ (b + np.uint64(sub))
                assert np.array_equal(
                    device.read_row(RowLocation(bank, sub, 2)), expected
                )


class TestBitVectorChurn:
    def test_allocate_free_cycle_conserves_rows(self):
        system = AmbitBitSystem(geometry=GEO)
        rng = np.random.default_rng(1)
        baseline = system.driver.free_rows()
        live = []
        for step in range(120):
            if live and (rng.random() < 0.45 or system.driver.free_rows() < 3):
                victim = live.pop(int(rng.integers(0, len(live))))
                victim.free()
            else:
                nbits = int(rng.integers(1, 3 * system.device.row_bits))
                try:
                    live.append(system.from_bits(rng.random(nbits) < 0.5))
                except Exception:
                    pass  # exhaustion is fine; freeing continues below
        for v in live:
            v.free()
        assert system.driver.free_rows() == baseline

    def test_results_stable_across_churn(self):
        system = AmbitBitSystem(geometry=GEO)
        rng = np.random.default_rng(3)
        bits_a = rng.random(1000) < 0.5
        bits_b = rng.random(1000) < 0.5
        a = system.from_bits(bits_a)
        b = system.from_bits(bits_b, like=a)
        keeper = a & b
        # Churn other vectors heavily.
        for _ in range(40):
            v = system.from_bits(rng.random(500) < 0.5)
            (~v).free()
            v.free()
        assert np.array_equal(keeper.to_bits(), bits_a & bits_b)


class TestProtocolViolationsAlwaysRaise:
    def test_no_silent_state_corruption_on_error(self):
        device = AmbitDevice(geometry=GEO)
        rng = np.random.default_rng(4)
        value = rng.integers(0, 2**64, size=WORDS, dtype=np.uint64)
        device.write_row(RowLocation(0, 0, 0), value)
        device.chip.activate(0, 0, 0)
        with pytest.raises(DramProtocolError):
            device.chip.activate(0, 1, 0)  # conflicting subarray
        device.chip.precharge(0)
        assert np.array_equal(device.read_row(RowLocation(0, 0, 0)), value)

    def test_bulk_op_rejected_cleanly_when_bank_open(self):
        device = AmbitDevice(geometry=GEO)
        device.chip.activate(0, 0, 0)
        before = len(device.chip.trace)
        with pytest.raises(DramProtocolError):
            device.controller.bbop(BulkOp.AND, 0, 0, 2, 0, 1)
        assert len(device.chip.trace) == before  # nothing half-issued
