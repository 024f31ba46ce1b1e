"""The subarray-aware driver (Section 5.4.2)."""

import numpy as np
import pytest

from repro.core.device import AmbitDevice
from repro.core.driver import (
    SCRATCH_ROWS_PER_SUBARRAY,
    AmbitDriver,
    BitVectorHandle,
    stage_row,
)
from repro.core.microprograms import BulkOp
from repro.dram.chip import RowLocation
from repro.dram.geometry import small_test_geometry
from repro.errors import AllocationError

GEO = small_test_geometry(rows=24, row_bytes=64, banks=2, subarrays_per_bank=2)
DATA_ROWS = GEO.subarray.data_rows  # 6
USABLE = DATA_ROWS - SCRATCH_ROWS_PER_SUBARRAY  # 4 per subarray


@pytest.fixture
def device():
    return AmbitDevice(geometry=GEO)


@pytest.fixture
def driver(device):
    return AmbitDriver(device)


class TestAllocation:
    def test_rows_needed(self, driver):
        row_bits = GEO.subarray.row_bits
        assert driver.rows_needed(1) == 1
        assert driver.rows_needed(row_bits) == 1
        assert driver.rows_needed(row_bits + 1) == 2

    def test_zero_bits_rejected(self, driver):
        with pytest.raises(AllocationError):
            driver.allocate(0)

    def test_multi_row_vector_spreads_across_banks(self, driver):
        handle = driver.allocate(GEO.subarray.row_bits * 4)
        banks = {r.bank for r in handle.rows}
        assert len(banks) > 1  # bank-level parallelism

    def test_colocated_allocation(self, driver):
        a = driver.allocate(GEO.subarray.row_bits * 3)
        b = driver.allocate(GEO.subarray.row_bits * 3, like=a)
        assert driver.colocated(a, b)

    def test_colocation_template_size_checked(self, driver):
        a = driver.allocate(GEO.subarray.row_bits * 2)
        with pytest.raises(AllocationError):
            driver.allocate(GEO.subarray.row_bits * 3, like=a)

    def test_free_returns_rows(self, driver):
        before = driver.free_rows()
        handle = driver.allocate(GEO.subarray.row_bits * 3)
        assert driver.free_rows() == before - 3
        driver.free(handle)
        assert driver.free_rows() == before

    def test_double_free_rejected(self, driver):
        handle = driver.allocate(GEO.subarray.row_bits)
        rows = list(handle.rows)
        driver.free(handle)
        handle.rows = rows
        with pytest.raises(AllocationError):
            driver.free(handle)

    def test_exhaustion(self, driver):
        total = driver.free_rows()
        driver.allocate(GEO.subarray.row_bits * total)
        with pytest.raises(AllocationError):
            driver.allocate(GEO.subarray.row_bits)

    def test_exhaustion_rolls_back(self, driver):
        total = driver.free_rows()
        before = driver.free_rows()
        with pytest.raises(AllocationError):
            driver.allocate(GEO.subarray.row_bits * (total + 1))
        assert driver.free_rows() == before

    def test_colocated_subarray_fills_up(self, driver):
        # A single subarray has USABLE rows; co-locating more fails.
        a = driver.allocate(GEO.subarray.row_bits)
        likes = [a]
        for _ in range(USABLE - 1):
            likes.append(driver.allocate(GEO.subarray.row_bits, like=a))
        with pytest.raises(AllocationError):
            driver.allocate(GEO.subarray.row_bits, like=a)


class TestScratchAndStaging:
    def test_scratch_rows_not_allocated(self, driver):
        scratch_addrs = {
            driver.scratch_row(0, 0, i).address
            for i in range(SCRATCH_ROWS_PER_SUBARRAY)
        }
        total = driver.free_rows()
        handles = [
            driver.allocate(GEO.subarray.row_bits) for _ in range(total)
        ]
        for h in handles:
            for r in h.rows:
                if (r.bank, r.subarray) == (0, 0):
                    assert r.address not in scratch_addrs

    def test_scratch_index_checked(self, driver):
        with pytest.raises(AllocationError):
            driver.scratch_row(0, 0, SCRATCH_ROWS_PER_SUBARRAY)

    def test_stage_noop_when_colocated(self, device, driver):
        a = RowLocation(0, 0, 1)
        assert stage_row(device, a, RowLocation(0, 0, 2)) == a

    def test_stage_across_banks(self, device, driver, rng=np.random.default_rng(1)):
        data = rng.integers(0, 2**63, size=GEO.subarray.words_per_row, dtype=np.uint64)
        src = RowLocation(0, 0, 1)
        target = RowLocation(1, 0, 2)
        device.write_row(src, data)
        staged = stage_row(device, src, target)
        assert (staged.bank, staged.subarray) == (1, 0)
        assert np.array_equal(device.read_row(staged), data)

    def test_stage_across_subarrays_same_bank(self, device, driver):
        rng = np.random.default_rng(2)
        data = rng.integers(0, 2**63, size=GEO.subarray.words_per_row, dtype=np.uint64)
        src = RowLocation(0, 0, 1)
        target = RowLocation(0, 1, 2)
        device.write_row(src, data)
        staged = stage_row(device, src, target)
        assert (staged.bank, staged.subarray) == (0, 1)
        assert np.array_equal(device.read_row(staged), data)

    def test_staged_op_end_to_end(self, device, driver):
        # Operands in different subarrays still compute correctly.
        rng = np.random.default_rng(3)
        words = GEO.subarray.words_per_row
        a = rng.integers(0, 2**63, size=words, dtype=np.uint64)
        b = rng.integers(0, 2**63, size=words, dtype=np.uint64)
        la, lb = RowLocation(0, 0, 0), RowLocation(1, 1, 0)
        dst = RowLocation(0, 0, 2)
        device.write_row(la, a)
        device.write_row(lb, b)
        staged_b = stage_row(device, lb, dst)
        device.bbop_row(BulkOp.AND, dst, la, staged_b)
        assert np.array_equal(device.read_row(dst), a & b)

    def test_staging_charges_time(self, device, driver):
        before = device.busy_ns
        stage_row(device, RowLocation(0, 0, 1), RowLocation(1, 0, 2))
        assert device.busy_ns > before

    def test_same_bank_stage_is_one_psm_copy_in_the_record(self, device, driver):
        """A stray from another subarray of the same bank is credited as
        one PSM copy, so the profile, the statistics and the metrics
        agree; the bank is charged once, as before."""
        busy, elapsed = device.busy_ns, device.elapsed_ns
        with device.profile() as prof:
            stage_row(device, RowLocation(0, 1, 1), RowLocation(0, 0, 2))
        assert prof.per_op["psm_copy"].count == 1
        assert prof.counters.rowclone_psm == 1
        assert prof.counters.busy_ns == device.busy_ns - busy == 45.0
        assert device.elapsed_ns - elapsed == 45.0
        device.metrics.collect()
        assert device.metrics.get("ambit_busy_ns_total").value == 45.0


class TestRollbackAndColocation:
    def _fill_stripe(self, driver, bank, sub, leave=0):
        """Drain a stripe down to ``leave`` free rows via co-location."""
        template = BitVectorHandle(
            nbits=GEO.subarray.row_bits,
            rows=[RowLocation(bank, sub, 0)],
        )
        handles = []
        while len(driver._free[(bank, sub)]) > leave:
            handles.append(
                driver.allocate(GEO.subarray.row_bits, like=template)
            )
        return handles

    def test_colocated_partial_failure_rolls_back(self, driver):
        # a's chunks land in stripes (0,0) and (1,0); fill (1,0) so the
        # co-located allocation succeeds on chunk 0 and fails on chunk 1.
        a = driver.allocate(GEO.subarray.row_bits * 2)
        assert [(r.bank, r.subarray) for r in a.rows] == [(0, 0), (1, 0)]
        self._fill_stripe(driver, 1, 0)
        before = driver.free_rows()
        assert len(driver._free[(0, 0)]) > 0  # chunk 0 will succeed
        with pytest.raises(AllocationError, match="full"):
            driver.allocate(GEO.subarray.row_bits * 2, like=a)
        assert driver.free_rows() == before
        # The rolled-back chunk-0 row is genuinely reusable.
        stripe_before = len(driver._free[(0, 0)])
        driver.allocate(
            GEO.subarray.row_bits,
            like=BitVectorHandle(
                nbits=GEO.subarray.row_bits, rows=[RowLocation(0, 0, 0)]
            ),
        )
        assert len(driver._free[(0, 0)]) == stripe_before - 1

    def test_colocated_false_across_banks(self, driver):
        a = BitVectorHandle(
            nbits=GEO.subarray.row_bits, rows=[RowLocation(0, 0, 0)]
        )
        b = BitVectorHandle(
            nbits=GEO.subarray.row_bits, rows=[RowLocation(1, 0, 0)]
        )
        assert not driver.colocated(a, b)
        assert not driver.colocated(b, a)

    def test_colocated_false_across_subarrays(self, driver):
        a = BitVectorHandle(
            nbits=GEO.subarray.row_bits, rows=[RowLocation(0, 0, 0)]
        )
        b = BitVectorHandle(
            nbits=GEO.subarray.row_bits, rows=[RowLocation(0, 1, 0)]
        )
        assert not driver.colocated(a, b)

    def test_colocated_false_on_row_count_mismatch(self, driver):
        a = driver.allocate(GEO.subarray.row_bits)
        b = driver.allocate(GEO.subarray.row_bits * 2)
        assert not driver.colocated(a, b)

    def test_live_queue_recovers_after_exhaustion(self, driver):
        # Regression for the O(1) round-robin queue: a drained stripe
        # leaves the live queue, and freeing a row must re-queue it.
        total = driver.free_rows()
        handles = [
            driver.allocate(GEO.subarray.row_bits) for _ in range(total)
        ]
        assert driver.free_rows() == 0
        with pytest.raises(AllocationError):
            driver.allocate(GEO.subarray.row_bits)
        victim = handles.pop()
        freed_stripe = (victim.rows[0].bank, victim.rows[0].subarray)
        driver.free(victim)
        again = driver.allocate(GEO.subarray.row_bits)
        assert (again.rows[0].bank, again.rows[0].subarray) == freed_stripe

    def test_round_robin_skips_drained_stripes(self, driver):
        # Drain stripe (0,0) entirely through co-location (the live
        # queue never observes it); round-robin must skip it lazily.
        self._fill_stripe(driver, 0, 0)
        remaining = driver.free_rows()
        handles = [
            driver.allocate(GEO.subarray.row_bits) for _ in range(remaining)
        ]
        assert driver.free_rows() == 0
        assert all(
            (h.rows[0].bank, h.rows[0].subarray) != (0, 0) for h in handles
        )
