"""Property suite: any single fault is survived bit-exactly.

For every bulk operation (all nine), a single injected stuck-row or
variation-induced TRA bit flip must leave the workload bit-exact
against the numpy reference after recovery, with zero unrecovered
faults.

The one-bank half is hypothesis-driven (operation, fault target, seed
and flip positions are all drawn); the two-bank half sweeps every
operation deterministically inside one device, with the fault in one
bank and the other bank healthy.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.device import AmbitDevice
from repro.core.microprograms import BulkOp
from repro.dram.chip import RowLocation
from repro.dram.geometry import small_test_geometry
from repro.engine.batch import apply_bulk_op
from repro.faults.injector import flip_mask
from repro.faults.recover import FaultTolerantSession

ALL_OPS = tuple(BulkOp)

#: Operations whose programs issue at least one triple-row activation
#: (COPY and NOT are pure AAP sequences -- a TRA glitch cannot touch
#: them, so an armed one-shot hook must stay armed across them).
TRA_OPS = tuple(op for op in BulkOp if op not in (BulkOp.COPY, BulkOp.NOT))

#: Working-set layout of the 30 data rows the test geometry exposes.
SRC_ROWS = (0, 1, 2)
DST_ROW = 3
SCRATCH = (8, 9)
SPARES = tuple(range(10, 18))

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def make_geometry(banks=1):
    return small_test_geometry(
        rows=48, row_bytes=32, banks=banks, subarrays_per_bank=1
    )


def provision(session, rng, bank=0):
    """Scratch + spares + verified random images of the working set."""
    session.set_scratch(bank, 0, SCRATCH)
    session.add_spares(bank, 0, SPARES)
    words = session.device.geometry.subarray.words_per_row
    images = {}
    for row in SRC_ROWS + (DST_ROW,):
        data = rng.integers(0, 2**64, size=words, dtype=np.uint64)
        session.write_row(RowLocation(bank, 0, row), data)
        images[row] = data
    return images


def run_and_check(session, op, images, bank=0):
    """One verified op; asserts bit-exactness and full recovery."""
    device = session.device
    srcs = [RowLocation(bank, 0, r) for r in SRC_ROWS[: op.arity]]
    dst = RowLocation(bank, 0, DST_ROW)
    session.bbop_row(
        op,
        dst,
        srcs[0],
        srcs[1] if op.arity >= 2 else None,
        srcs[2] if op.arity >= 3 else None,
    )
    reference = apply_bulk_op(op, *[images[r] for r in SRC_ROWS[: op.arity]])
    np.testing.assert_array_equal(device.read_row(dst), reference)
    assert session.unrecovered_count == 0
    # The patrol scrub repairs rows the op itself never read (a stuck
    # source of a unary op, say) and must leave nothing behind.
    assert session.scrub() == []
    assert session.verify_all() == []
    assert session.unrecovered_count == 0
    return reference


def used_rows(op):
    return list(SRC_ROWS[: op.arity]) + [DST_ROW]


class TestSerialProperties:
    @SETTINGS
    @given(
        op=st.sampled_from(ALL_OPS),
        target_index=st.integers(min_value=0, max_value=3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_single_stuck_row_recovered_bit_exact(
        self, op, target_index, seed
    ):
        """A stuck operand or destination row is remapped to a spare."""
        device = AmbitDevice(geometry=make_geometry())
        session = FaultTolerantSession(device)
        images = provision(session, np.random.default_rng(seed))
        target = used_rows(op)[target_index % len(used_rows(op))]
        subarray = device.chip.bank(0).subarray(0)
        physical = device.controller.repair.translate(0, 0, target)
        subarray.inject_stuck_row(physical, ~images[target])
        run_and_check(session, op, images)
        # The pinned image differed from the intended one, so the fault
        # must have been caught and repaired, never waved through.
        assert session.log, "stuck row went undetected"
        assert all(r.action != "unrecovered" for r in session.log)
        assert any(r.action == "remapped" for r in session.log)
        assert session.recovered_count > 0

    @SETTINGS
    @given(
        op=st.sampled_from(ALL_OPS),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        bits=st.lists(
            st.integers(min_value=0, max_value=255),
            min_size=1,
            max_size=8,
            unique=True,
        ),
    )
    def test_single_tra_flip_recovered_bit_exact(self, op, seed, bits):
        """A one-shot TRA bit flip is retried away (or cannot fire)."""
        device = AmbitDevice(geometry=make_geometry())
        session = FaultTolerantSession(device)
        images = provision(session, np.random.default_rng(seed))
        subarray = device.chip.bank(0).subarray(0)
        words = device.geometry.subarray.words_per_row
        mask = flip_mask(bits, words)

        def hook(sensed, _sub=subarray, _mask=mask):
            _sub.tra_fault_hook = None  # one-shot, like the injector
            return _mask

        subarray.tra_fault_hook = hook
        run_and_check(session, op, images)
        if op in TRA_OPS:
            assert subarray.tra_fault_hook is None, "hook never fired"
        else:
            # COPY/NOT issue no TRA; disarm so scrub stays comparable.
            subarray.tra_fault_hook = None
        # A flip inside an intermediate row can be masked by a later
        # majority/OR stage, leaving the final result correct with no
        # mismatch to recover from -- but anything the session *did*
        # flag must have been recovered.
        assert all(r.action != "unrecovered" for r in session.log)

    @SETTINGS
    @given(
        op=st.sampled_from(TRA_OPS),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_direct_tra_flip_is_detected_and_retried(self, op, seed):
        """Flipping every bit of the sensed value cannot be masked."""
        device = AmbitDevice(geometry=make_geometry())
        session = FaultTolerantSession(device)
        images = provision(session, np.random.default_rng(seed))
        subarray = device.chip.bank(0).subarray(0)
        words = device.geometry.subarray.words_per_row
        mask = np.full(words, np.uint64(0xFFFFFFFFFFFFFFFF))

        def hook(sensed, _sub=subarray, _mask=mask):
            _sub.tra_fault_hook = None
            return _mask

        subarray.tra_fault_hook = hook
        run_and_check(session, op, images)
        assert any(
            r.kind == "tra_flip" and r.action == "retried"
            for r in session.log
        ), "an all-ones TRA flip must surface as a retried mismatch"

    def test_stored_row_remaps_are_labelled_by_their_caller(self):
        """A scrub's remap is logged as ``scrub``, as its timed attempt
        is, and a verified write's as ``write``."""
        device = AmbitDevice(geometry=make_geometry())
        session = FaultTolerantSession(device)
        images = provision(session, np.random.default_rng(11))
        subarray = device.chip.bank(0).subarray(0)
        subarray.inject_stuck_row(0, ~images[0])
        assert session.scrub() == []
        subarray.inject_stuck_row(1, ~images[1])
        session.write_row(RowLocation(0, 0, 1), images[1])
        assert [(r.op, r.address, r.kind, r.action) for r in session.log] == [
            ("scrub", 0, "stuck_row", "remapped"),
            ("write", 1, "stuck_row", "remapped"),
        ]
        assert [(a.op, a.address, a.action, a.ok) for a in session.attempts] == [
            ("scrub", 0, "remap", True),
            ("write", 1, "remap", True),
        ]
        assert session.verify_all() == []


class TestTwoBankProperties:
    """The same single-fault property with a healthy bank beside it.

    One device per fault kind; bank 0 carries the fault (its group
    takes the per-row walk and the session recovers it), bank 1 stays
    healthy (the fused kernel), so every op exercises both execution
    routes in one call.
    """

    BANKS = 2

    def _reset(self, device, rng):
        device.controller.repair.clear()
        session = FaultTolerantSession(device)
        images = {}
        for bank in range(self.BANKS):
            subarray = device.chip.bank(bank).subarray(0)
            for row in list(subarray.stuck):
                subarray.clear_stuck_row(row)
            subarray.tra_fault_hook = None
            images[bank] = provision(session, rng, bank=bank)
        return session, images

    def _run_all_banks(self, session, op, images):
        device = session.device
        dst = [RowLocation(b, 0, DST_ROW) for b in range(self.BANKS)]
        srcs = [
            [RowLocation(b, 0, r) for b in range(self.BANKS)]
            for r in SRC_ROWS[: op.arity]
        ]
        session.run_rows(
            op,
            dst,
            srcs[0],
            srcs[1] if op.arity >= 2 else None,
            srcs[2] if op.arity >= 3 else None,
        )
        for bank in range(self.BANKS):
            reference = apply_bulk_op(
                op, *[images[bank][r] for r in SRC_ROWS[: op.arity]]
            )
            np.testing.assert_array_equal(
                device.read_row(dst[bank]), reference
            )
        assert session.unrecovered_count == 0
        assert session.scrub() == []

    def test_stuck_row_every_op(self):
        rng = np.random.default_rng(101)
        device = AmbitDevice(geometry=make_geometry(banks=self.BANKS))
        for i, op in enumerate(ALL_OPS):
            session, images = self._reset(device, rng)
            target = used_rows(op)[i % len(used_rows(op))]
            subarray = device.chip.bank(0).subarray(0)
            physical = device.controller.repair.translate(0, 0, target)
            subarray.inject_stuck_row(physical, ~images[0][target])
            self._run_all_banks(session, op, images)
            assert any(
                r.action == "remapped" for r in session.log
            ), f"{op.value}: stuck row not remapped"

    def test_tra_flip_every_op(self):
        rng = np.random.default_rng(202)
        device = AmbitDevice(geometry=make_geometry(banks=self.BANKS))
        words = device.geometry.subarray.words_per_row
        mask = np.full(words, np.uint64(0xFFFFFFFFFFFFFFFF))
        for op in ALL_OPS:
            session, images = self._reset(device, rng)
            subarray = device.chip.bank(0).subarray(0)

            def hook(sensed, _sub=subarray, _mask=mask):
                _sub.tra_fault_hook = None
                return _mask

            subarray.tra_fault_hook = hook
            self._run_all_banks(session, op, images)
            if op in TRA_OPS:
                assert any(
                    r.kind == "tra_flip" and r.action == "retried"
                    for r in session.log
                ), f"{op.value}: TRA flip not retried"
            else:
                subarray.tra_fault_hook = None


class TestRecoveryDisabled:
    def test_mismatch_counts_unrecovered(self):
        """Detection-only mode flags the fault instead of fixing it."""
        from repro.faults.recover import RecoveryPolicy

        device = AmbitDevice(geometry=make_geometry())
        session = FaultTolerantSession(
            device, RecoveryPolicy(enabled=False)
        )
        images = provision(session, np.random.default_rng(9))
        subarray = device.chip.bank(0).subarray(0)
        subarray.inject_stuck_row(0, ~images[0])
        dst = RowLocation(0, 0, DST_ROW)
        session.bbop_row(BulkOp.AND, dst, RowLocation(0, 0, 0),
                         RowLocation(0, 0, 1))
        assert session.unrecovered_count > 0
        assert all(r.action == "unrecovered" for r in session.log)

    def test_strict_policy_raises(self):
        from repro.errors import FaultError
        from repro.faults.recover import RecoveryPolicy

        device = AmbitDevice(geometry=make_geometry())
        session = FaultTolerantSession(
            device, RecoveryPolicy(enabled=False, strict=True)
        )
        images = provision(session, np.random.default_rng(10))
        subarray = device.chip.bank(0).subarray(0)
        subarray.inject_stuck_row(0, ~images[0])
        with pytest.raises(FaultError):
            session.bbop_row(
                BulkOp.AND,
                RowLocation(0, 0, DST_ROW),
                RowLocation(0, 0, 0),
                RowLocation(0, 0, 1),
            )


class TestAttemptHistory:
    """The timed-rung record is a bounded ring with a monotonic index.

    Long chaos soaks climb the ladder thousands of times; the session
    must not hold every rung forever, and the serving layer's
    mark-then-slice read pattern must survive the ring wrapping.
    """

    @staticmethod
    def _session():
        device = AmbitDevice(geometry=make_geometry())
        return FaultTolerantSession(device)

    @staticmethod
    def _climb(session, count):
        loc = RowLocation(0, 0, 0)
        for _ in range(count):
            session._attempt("write", loc, "retry", True,
                             start_ns=0)

    def test_ring_is_bounded_but_total_is_monotonic(self):
        from repro.faults.recover import ATTEMPT_HISTORY

        session = self._session()
        self._climb(session, ATTEMPT_HISTORY + 100)
        assert len(session.attempts) == ATTEMPT_HISTORY
        assert session.attempts_total == ATTEMPT_HISTORY + 100

    def test_attempts_since_survives_ring_wrap(self):
        from repro.faults.recover import ATTEMPT_HISTORY

        session = self._session()
        # Fill the ring completely, then mark and append a small wave's
        # worth of rungs -- the exact pattern the wave runner uses.
        self._climb(session, ATTEMPT_HISTORY + 7)
        mark = session.attempts_total
        self._climb(session, 5)
        fresh = session.attempts_since(mark)
        assert len(fresh) == 5
        assert fresh == list(session.attempts)[-5:]
        # A mark so old its rungs were evicted degrades to "everything
        # still retained", never to an IndexError or negative slice.
        assert len(session.attempts_since(0)) == ATTEMPT_HISTORY
        # A fresh mark with no rungs since returns the empty list.
        assert session.attempts_since(session.attempts_total) == []
