"""The batch engine is bit-exact against the per-row command path.

The acceptance property of the engine: for every bulk operation, for
random inputs, row counts, and address layouts, running a batch through
:meth:`repro.engine.batch.BatchEngine.run_rows` leaves the device in a
state indistinguishable from walking the same rows one at a time through
:meth:`repro.core.device.AmbitDevice.bbop_row` -- same cell contents,
same accounted time and statistics, same per-bank command sequence.
"""

from collections import Counter
from weakref import WeakKeyDictionary

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.device import AmbitDevice
from repro.core.microprograms import BulkOp
from repro.dram.chip import RowLocation
from repro.dram.geometry import small_test_geometry
from repro.engine.batch import apply_bulk_op
from repro.errors import AddressError
from repro.obs.sinks import RingBufferSink
from repro.obs.tracer import Tracer

ALL_OPS = tuple(BulkOp)
LOGIC_OPS = tuple(op for op in BulkOp if op not in (BulkOp.COPY, BulkOp.MAJ))
#: A COPY cannot read its own destination.
IN_PLACE_OPS = tuple(op for op in BulkOp if op is not BulkOp.COPY)

GEO = small_test_geometry(rows=32, row_bytes=64, banks=2, subarrays_per_bank=2)
DATA_ROWS = GEO.subarray.data_rows
WORDS = GEO.subarray.words_per_row


def _fill(device, rng):
    """Seed every data row of every subarray with the same random bits."""
    for bank in range(GEO.banks):
        for sub in range(GEO.subarrays_per_bank):
            for addr in range(DATA_ROWS):
                device.write_row(
                    RowLocation(bank, sub, addr),
                    rng.integers(0, 2**63, size=WORDS, dtype=np.uint64),
                )


#: Command trace -> every command its device issued since
#: :func:`_twin_devices` built it.
_CAPTURED = WeakKeyDictionary()


def _twin_devices(seed):
    """Two devices with identical geometry and identical cell contents,
    each capturing its commands for its lifetime."""
    slow = AmbitDevice(geometry=GEO)
    fast = AmbitDevice(geometry=GEO)
    for device in (slow, fast):
        _CAPTURED[device.chip.trace] = device.chip.trace.open_capture()
        _fill(device, np.random.default_rng(seed))
    return slow, fast


def _run_per_row(device, op, dst, src1, src2=None, src3=None):
    for i in range(len(dst)):
        device.bbop_row(
            op,
            dst[i],
            src1[i],
            None if src2 is None else src2[i],
            None if src3 is None else src3[i],
        )


def _subarray_traces(device):
    """Per-(bank, subarray) command sequences.

    How groups interleave is scheduler policy (banks are independent and
    the engine may batch a subarray's rows together); within one
    subarray's stream the commands must match the per-row walk exactly.
    """
    per_sub = {}
    for ic in _CAPTURED[device.chip.trace]:
        key = (ic.command.bank, ic.command.subarray)
        per_sub.setdefault(key, []).append(
            (
                ic.command.opcode,
                ic.command.row,
                ic.wordlines_raised,
                ic.onto_open_row,
            )
        )
    return per_sub


def _assert_equivalent(slow, fast):
    """Cells, statistics, clock, and per-bank traces all match."""
    for bank in range(GEO.banks):
        for sub in range(GEO.subarrays_per_bank):
            for addr in range(DATA_ROWS):
                loc = RowLocation(bank, sub, addr)
                np.testing.assert_array_equal(
                    slow.read_row(loc),
                    fast.read_row(loc),
                    err_msg=f"cells diverge at {loc}",
                )
    assert fast.controller.stats.aap_count == slow.controller.stats.aap_count
    assert fast.controller.stats.ap_count == slow.controller.stats.ap_count
    assert dict(fast.controller.stats.ops) == dict(slow.controller.stats.ops)
    assert fast.busy_ns == pytest.approx(slow.busy_ns)
    assert fast.elapsed_ns == pytest.approx(slow.elapsed_ns)
    assert dict(fast.controller.stats.bank_busy_ns) == pytest.approx(
        dict(slow.controller.stats.bank_busy_ns)
    )
    assert fast.chip.clock_ns == pytest.approx(slow.chip.clock_ns)
    assert _subarray_traces(fast) == _subarray_traces(slow)
    # The counts are exact without a capture: fused rows are charged
    # from their templates' totals, walked rows tallied as the chip
    # executes them.
    for device in (slow, fast):
        assert device.chip.trace.command_counts() == Counter(
            (ic.command.opcode, ic.wordlines_raised)
            for ic in _CAPTURED[device.chip.trace]
        )


def _layout(op, draw_rows):
    """Turn drawn (bank, sub, k) triples into distinct-dst operand lists."""
    dst, src1, src2, src3 = [], [], [], []
    used = set()
    for bank, sub, k in draw_rows:
        d = 3 + (k % (DATA_ROWS - 3))
        if (bank, sub, d) in used:
            continue  # distinct destinations: keep the batch hazard-free
        used.add((bank, sub, d))
        dst.append(RowLocation(bank, sub, d))
        src1.append(RowLocation(bank, sub, 0))
        src2.append(RowLocation(bank, sub, 1))
        src3.append(RowLocation(bank, sub, 2))
    return (
        dst,
        src1,
        src2 if op.arity >= 2 else None,
        src3 if op.arity == 3 else None,
    )


row_triples = st.lists(
    st.tuples(
        st.integers(0, GEO.banks - 1),
        st.integers(0, GEO.subarrays_per_bank - 1),
        st.integers(0, DATA_ROWS - 4),
    ),
    min_size=1,
    max_size=12,
)


class TestBitExactness:
    """run_rows == per-row bbop_row, for every op, property-tested."""

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(rows=row_triples, seed=st.integers(0, 2**31 - 1))
    @pytest.mark.parametrize("op", ALL_OPS, ids=[op.value for op in ALL_OPS])
    def test_fused_matches_per_row(self, op, rows, seed):
        slow, fast = _twin_devices(seed)
        dst, src1, src2, src3 = _layout(op, rows)
        _run_per_row(slow, op, dst, src1, src2, src3)
        report = fast.engine.run_rows(op, dst, src1, src2, src3)
        assert report.rows == len(dst)
        assert report.fused_rows == len(dst)  # hazard-free: all fused
        assert report.fallback_rows == 0
        _assert_equivalent(slow, fast)

    @pytest.mark.parametrize(
        "op", IN_PLACE_OPS, ids=[op.value for op in IN_PLACE_OPS]
    )
    def test_in_place_rows_fuse(self, op):
        """Every row reads its own destination, and rows share their
        other sources: the rows are independent, so the whole batch
        fuses and equals the per-row walk."""
        slow, fast = _twin_devices(seed=43)
        dst, src1, src2, src3 = [], [], [], []
        for d in range(3, 8):
            for bank in range(GEO.banks):
                for sub in range(GEO.subarrays_per_bank):
                    dst.append(RowLocation(bank, sub, d))
                    src1.append(RowLocation(bank, sub, d))
                    src2.append(RowLocation(bank, sub, 0))
                    src3.append(RowLocation(bank, sub, 1))
        srcs = (
            src1,
            src2 if op.arity >= 2 else None,
            src3 if op.arity == 3 else None,
        )
        _run_per_row(slow, op, dst, *srcs)
        report = fast.engine.run_rows(op, dst, *srcs)
        assert report.fused_rows == report.rows == len(dst)
        _assert_equivalent(slow, fast)

    @pytest.mark.parametrize("op", ALL_OPS, ids=[op.value for op in ALL_OPS])
    def test_functional_truth(self, op):
        """apply_bulk_op agrees with the command-level walk row by row."""
        slow, fast = _twin_devices(seed=7)
        dst = [RowLocation(0, 0, 5)]
        src1 = [RowLocation(0, 0, 0)]
        src2 = [RowLocation(0, 0, 1)] if op.arity >= 2 else None
        src3 = [RowLocation(0, 0, 2)] if op.arity == 3 else None
        a = slow.read_row(src1[0])
        b = slow.read_row(src2[0]) if src2 else None
        c = slow.read_row(src3[0]) if src3 else None
        expected = apply_bulk_op(op, a, b, c)
        _run_per_row(slow, op, dst, src1, src2, src3)
        fast.engine.run_rows(op, dst, src1, src2, src3)
        np.testing.assert_array_equal(slow.read_row(dst[0]), expected)
        np.testing.assert_array_equal(fast.read_row(dst[0]), expected)


class TestFallbacks:
    def test_tracer_does_not_force_per_row_path(self):
        """A tracer observes the fused kernel instead of replacing it:
        every row fuses, and the event stream equals the per-row walk's."""
        slow, fast = _twin_devices(seed=11)
        rings = []
        for device in (slow, fast):
            rings.append(RingBufferSink())
            device.attach_tracer(Tracer(
                sinks=[rings[-1]], timing=device.timing,
                row_bytes=device.row_bytes,
            ))
        dst, src1, src2, _ = _layout(BulkOp.AND, [(0, 0, 0), (1, 1, 1)])
        slow.engine.run_rows(BulkOp.AND, dst, src1, src2, fuse=False)
        report = fast.engine.run_rows(BulkOp.AND, dst, src1, src2)
        assert report.fused_rows == report.rows == len(dst)
        assert report.fallback_rows == 0
        assert len(rings[1]) > 0
        assert rings[1].events == rings[0].events
        _assert_equivalent(slow, fast)

    def test_stuck_row_forces_per_row_path(self):
        slow, fast = _twin_devices(seed=13)
        pinned = np.zeros(WORDS, dtype=np.uint64)
        for dev in (slow, fast):
            dev.chip.bank(0).subarray(0).inject_stuck_row(5, pinned)
        dst = [RowLocation(0, 0, 5), RowLocation(0, 0, 6)]
        src1 = [RowLocation(0, 0, 0)] * 2
        src2 = [RowLocation(0, 0, 1)] * 2
        _run_per_row(slow, BulkOp.OR, dst, src1, src2)
        report = fast.engine.run_rows(BulkOp.OR, dst, src1, src2)
        assert report.fused_rows == 0 and report.fallback_rows == 2
        _assert_equivalent(slow, fast)
        np.testing.assert_array_equal(fast.read_row(dst[0]), pinned)

    def test_write_read_hazard_forces_per_row_path(self):
        """Row 1's source is row 0's destination: sequential semantics."""
        slow, fast = _twin_devices(seed=17)
        dst = [RowLocation(0, 0, 5), RowLocation(0, 0, 6)]
        src1 = [RowLocation(0, 0, 0), RowLocation(0, 0, 5)]
        src2 = [RowLocation(0, 0, 1), RowLocation(0, 0, 1)]
        _run_per_row(slow, BulkOp.XOR, dst, src1, src2)
        report = fast.engine.run_rows(BulkOp.XOR, dst, src1, src2)
        assert report.fused_rows == 0 and report.fallback_rows == 2
        _assert_equivalent(slow, fast)

    def test_duplicate_destination_forces_per_row_path(self):
        slow, fast = _twin_devices(seed=19)
        dst = [RowLocation(0, 0, 5), RowLocation(0, 0, 5)]
        src1 = [RowLocation(0, 0, 0), RowLocation(0, 0, 1)]
        slow_report = fast.engine.run_rows(BulkOp.COPY, dst, src1)
        assert slow_report.fused_rows == 0
        _run_per_row(slow, BulkOp.COPY, dst, src1)
        _assert_equivalent(slow, fast)
        np.testing.assert_array_equal(
            fast.read_row(dst[0]), fast.read_row(src1[1])
        )

    def test_shared_scratch_row_forces_per_row_path(self):
        """Both rows clobber scratch row 10: sequential semantics."""
        from repro.compile import compile_expr, parse_expr

        mux = compile_expr(parse_expr("mux(c, a, b)"), name="shared_temp")
        slow, fast = _twin_devices(seed=23)
        dst = [RowLocation(0, 0, 5), RowLocation(0, 0, 6)]
        srcs = [[RowLocation(0, 0, k)] * 2 for k in range(mux.arity)]
        temps = [
            [RowLocation(0, 0, 10)] * 2,
            [RowLocation(0, 0, 11), RowLocation(0, 0, 12)],
        ]
        for i in range(len(dst)):
            slow.bbop_row(
                mux, dst[i], *(col[i] for col in srcs),
                temps=[col[i] for col in temps],
            )
        report = fast.engine.run_rows(mux, dst, *srcs, temps=temps)
        assert report.fused_rows == 0 and report.fallback_rows == 2
        _assert_equivalent(slow, fast)


class TestParallelismReport:
    def test_even_spread_reports_full_overlap(self):
        _, fast = _twin_devices(seed=23)
        rows = [(b, 0, k) for b in range(GEO.banks) for k in range(3)]
        dst, src1, src2, _ = _layout(BulkOp.AND, rows)
        report = fast.engine.run_rows(BulkOp.AND, dst, src1, src2)
        par = report.parallelism
        assert par.banks == GEO.banks
        assert par.parallelism == pytest.approx(GEO.banks)
        assert par.serialized_ns == pytest.approx(fast.busy_ns)
        assert par.makespan_ns == pytest.approx(fast.elapsed_ns)

    def test_single_bank_reports_no_overlap(self):
        _, fast = _twin_devices(seed=29)
        dst, src1, src2, _ = _layout(BulkOp.OR, [(0, 0, 0), (0, 0, 1)])
        report = fast.engine.run_rows(BulkOp.OR, dst, src1, src2)
        assert report.parallelism.banks == 1
        assert report.parallelism.parallelism == pytest.approx(1.0)


class TestValidation:
    def test_mismatched_operand_lengths(self):
        _, fast = _twin_devices(seed=31)
        with pytest.raises(AddressError, match="align"):
            fast.engine.run_rows(
                BulkOp.AND,
                [RowLocation(0, 0, 5)],
                [RowLocation(0, 0, 0), RowLocation(0, 0, 1)],
                [RowLocation(0, 0, 1)],
            )

    def test_cross_subarray_operand_rejected(self):
        _, fast = _twin_devices(seed=37)
        with pytest.raises(AddressError, match="share a subarray"):
            fast.engine.run_rows(
                BulkOp.AND,
                [RowLocation(0, 0, 5)],
                [RowLocation(0, 1, 0)],
                [RowLocation(0, 0, 1)],
            )

    def test_empty_batch_is_a_no_op(self):
        _, fast = _twin_devices(seed=41)
        before = fast.chip.clock_ns
        report = fast.engine.run_rows(BulkOp.AND, [], [], [])
        assert report.rows == 0
        assert fast.chip.clock_ns == before
        assert report.parallelism.parallelism == 1.0


#: Rows remapped to spare row 12 of their subarray before the call: a
#: destination on (0, 0) and the shared second source of (1, 1).
REMAPPED = ((0, 0, 4), (1, 1, 1))


def _remapped_call():
    """XOR rows 3-6 of every subarray from rows 0 and 1."""
    dst = [
        RowLocation(bank, sub, d)
        for bank in range(GEO.banks)
        for sub in range(GEO.subarrays_per_bank)
        for d in range(3, 7)
    ]
    src1 = [RowLocation(loc.bank, loc.subarray, 0) for loc in dst]
    src2 = [RowLocation(loc.bank, loc.subarray, 1) for loc in dst]
    return dst, src1, src2


def _remap(device):
    repair = device.controller.repair
    for bank, sub, address in REMAPPED:
        repair.add_spares(bank, sub, (12, 13))
        assert repair.assign(bank, sub, address) == 12


def _runs(device):
    """Op executions by value, charged and walked alike."""
    runs = Counter()
    for totals, n in device.chip.trace.record().runs():
        runs[totals.name, totals.aaps, totals.aps, totals.ns] += n
    return runs


class TestRemappedRows:
    """A group holding remapped rows runs at their spares."""

    def test_plan_keeps_the_callers_addresses_and_binds_the_spares(self):
        _, device = _twin_devices(seed=47)
        _remap(device)
        groups = device.engine.plan_groups(BulkOp.XOR, *_remapped_call())
        by_key = {(g.bank, g.subarray): g for g in groups}
        dst = by_key[0, 0]
        assert [row[0] for row in dst.logical] == [3, 4, 5, 6]
        assert [row[0] for row in dst.rows] == [3, 12, 5, 6]
        src = by_key[1, 1]
        assert {row[2] for row in src.logical} == {1}
        assert {row[2] for row in src.rows} == {12}
        assert by_key[0, 1].rows is by_key[0, 1].logical
        assert all(
            g.dependent is None and len(g.templates) == 1 for g in groups
        )

    @pytest.mark.parametrize("path", ["fused", "session"])
    def test_every_path_equals_the_per_row_walk(self, path):
        from repro.faults.recover import FaultTolerantSession

        walked, device = _twin_devices(seed=53)
        call = _remapped_call()
        for dev in (walked, device):
            _remap(dev)
        walked.engine.run_rows(BulkOp.XOR, *call, fuse=False)
        if path == "session":
            session = FaultTolerantSession(device)
            session.run_rows(BulkOp.XOR, *call)
            assert not session.log and session.verify_all() == []
        else:
            report = device.run_rows(BulkOp.XOR, *call)
            assert report.fused_rows == report.rows == len(call[0])
        # Every data row, the retired rows and the spares included
        # (the fused kernel leaves B-group rows stale by design).
        for bank in range(GEO.banks):
            for sub in range(GEO.subarrays_per_bank):
                np.testing.assert_array_equal(
                    device.chip.bank(bank).subarray(sub).cells[:DATA_ROWS],
                    walked.chip.bank(bank).subarray(sub).cells[:DATA_ROWS],
                )
        _assert_equivalent(walked, device)
        assert device.chip.trace.record().commands() == (
            walked.chip.trace.record().commands()
        )
        assert _runs(device) == _runs(walked)
        assert device.busy_ns == walked.busy_ns
        assert device.elapsed_ns == walked.elapsed_ns
