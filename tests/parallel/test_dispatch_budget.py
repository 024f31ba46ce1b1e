"""Perf-invariant gate: the dispatch path stays O(1) per batch.

The resident-plan protocol's contract is *structural*, so it can be
tested without a clock: after the first batch of a given shape has
published its plan to the shared accounting block's board, every later
batch of that shape must cross the process boundary as a fingerprint id
plus a few integers -- never a row list or a plan object, traced or not.
The pool's :class:`~repro.parallel.pool.PoolIOStats` counters measure
exactly what the executor pickles, so a regression that quietly starts
re-shipping payloads fails here long before it would show up as a
wall-clock number on some particular CI host.

Budgets are deliberately loose absolutes (a shard job message is ~130
bytes today; the gate says < 512) so refactors can move fields around
without churn, while an O(rows) regression -- tens of kilobytes for the
large shapes below -- still fails by an order of magnitude.
"""

import numpy as np

from repro.core.microprograms import BulkOp
from repro.dram.chip import RowLocation
from repro.dram.geometry import small_test_geometry
from repro.obs.sinks import RingBufferSink
from repro.obs.tracer import Tracer
from repro.parallel import ShardedDevice

#: Per-job pickled-bytes ceiling in the steady state (id + integers).
JOB_BUDGET = 512
#: Per-result ceiling: workers return a bare shard index.
RESULT_BUDGET = 64

GEO = small_test_geometry(rows=64, row_bytes=64, banks=4, subarrays_per_bank=2)
WORDS = GEO.subarray.words_per_row


def _fill(device, seed=17):
    rng = np.random.default_rng(seed)
    for bank in range(GEO.banks):
        for sub in range(GEO.subarrays_per_bank):
            for addr in range(GEO.subarray.data_rows):
                device.write_row(
                    RowLocation(bank, sub, addr),
                    rng.integers(0, 2**63, size=WORDS, dtype=np.uint64),
                )


def _batch(rows_per_bank):
    dst, src1, src2 = [], [], []
    for bank in range(GEO.banks):
        for i in range(rows_per_bank):
            dst.append(RowLocation(bank, 0, 2 + i))
            src1.append(RowLocation(bank, 0, 0))
            src2.append(RowLocation(bank, 0, 1))
    return dst, src1, src2


def test_steady_state_jobs_are_o1_messages():
    with ShardedDevice(geometry=GEO, max_workers=2) as sharded:
        _fill(sharded)
        dst, src1, src2 = _batch(rows_per_bank=12)
        report = sharded.run_rows(BulkOp.AND, dst, src1, src2)  # warm-up
        assert report.shards == 2
        pool = sharded.pool
        assert pool is not None

        before = pool.io.snapshot()
        batches = 5
        for _ in range(batches):
            sharded.run_rows(BulkOp.AND, dst, src1, src2)
        delta = pool.io.delta(before)

        # Exactly one message per shard per batch, nothing else.
        assert delta.submitted_jobs == batches * report.shards
        assert delta.received_results == batches * report.shards
        # O(1) bytes per message regardless of the 48-row batch body.
        assert delta.max_submission_bytes < JOB_BUDGET
        assert delta.submitted_bytes < delta.submitted_jobs * JOB_BUDGET
        # Workers answer with a bare shard index.
        assert delta.received_bytes < delta.received_results * RESULT_BUDGET
        # One plan on the board serves every repeat.
        assert sharded.resident_plans == 1


def test_job_bytes_do_not_scale_with_batch_size():
    with ShardedDevice(geometry=GEO, max_workers=2) as sharded:
        _fill(sharded)
        small = _batch(rows_per_bank=2)
        large = _batch(rows_per_bank=24)

        def warmed_max_bytes(batch):
            sharded.run_rows(BulkOp.OR, *batch)  # publish the plan
            before = sharded.pool.io.snapshot()
            sharded.run_rows(BulkOp.OR, *batch)
            return sharded.pool.io.delta(before).max_submission_bytes

        small_bytes = warmed_max_bytes(small)
        large_bytes = warmed_max_bytes(large)
        # A 12x larger batch crosses the boundary in the same envelope.
        assert large_bytes == small_bytes
        assert sharded.resident_plans == 2


def test_same_shape_shares_a_plan_across_ops():
    with ShardedDevice(geometry=GEO, max_workers=2) as sharded:
        _fill(sharded)
        dst, src1, src2 = _batch(rows_per_bank=6)
        for op in (BulkOp.AND, BulkOp.OR, BulkOp.XOR, BulkOp.NAND):
            sharded.run_rows(op, dst, src1, src2)
        # The fingerprint is the operand layout, not the op.
        assert sharded.resident_plans == 1


def test_traced_batches_keep_the_budget():
    with ShardedDevice(geometry=GEO, max_workers=2) as sharded:
        _fill(sharded)
        dst, src1, src2 = _batch(rows_per_bank=10)
        sharded.run_rows(BulkOp.XOR, dst, src1, src2)  # warm-up

        def window():
            before = sharded.pool.io.snapshot()
            sharded.run_rows(BulkOp.XOR, dst, src1, src2)
            return sharded.pool.io.delta(before)

        untraced = window()
        board_entries = sharded.block.board_entries
        ring = RingBufferSink()
        sharded.attach_tracer(Tracer(
            sinks=(ring,), timing=sharded.timing,
            row_bytes=sharded.row_bytes,
        ))
        traced = window()

        # Workers never trace: a traced job is the untraced job, byte
        # for byte, and nothing tracer-related reaches the plan board.
        assert traced.submitted_jobs == untraced.submitted_jobs
        assert traced.submitted_bytes == untraced.submitted_bytes
        assert traced.max_submission_bytes < JOB_BUDGET
        assert traced.received_bytes < traced.received_results * RESULT_BUDGET
        assert sharded.block.board_entries == board_entries == 2
        assert len(ring.events) > 0


def test_full_board_falls_back_inline_and_stays_correct():
    from repro.core.device import AmbitDevice

    serial = AmbitDevice(geometry=GEO)
    _fill(serial)
    dst, src1, src2 = _batch(rows_per_bank=4)
    serial.engine.run_rows(BulkOp.AND, dst, src1, src2)

    # A one-entry board: the first shape occupies it, the second must
    # ship inline -- visibly (bigger messages, 'inline' events) but
    # correctly.
    with ShardedDevice(
        geometry=GEO, max_workers=2, board_slots=1
    ) as sharded:
        _fill(sharded)
        sharded.run_rows(BulkOp.AND, dst, src1, src2)

        other = _batch(rows_per_bank=9)
        sharded.run_rows(BulkOp.AND, *other)  # board full -> inline

        # max_submission_bytes is a running high-water mark, so compare
        # the windows by average bytes per job instead.
        def bytes_per_job(batch):
            before = sharded.pool.io.snapshot()
            sharded.run_rows(BulkOp.AND, *batch)
            delta = sharded.pool.io.delta(before)
            return delta.submitted_bytes / delta.submitted_jobs

        resident_bytes = bytes_per_job((dst, src1, src2))  # resident
        inline_bytes = bytes_per_job(other)                # inline

        assert resident_bytes < JOB_BUDGET
        assert inline_bytes > resident_bytes
        family = sharded.metrics.get("ambit_resident_plans_total")
        assert family.labels(event="inline").value >= 2

        for loc in dst:
            assert np.array_equal(
                serial.read_row(loc), sharded.read_row(loc)
            )


def test_full_board_memoises_only_accepted_entries():
    from repro.core.device import AmbitDevice

    shapes = [_batch(rows_per_bank=k) for k in range(1, 7)]
    serial = AmbitDevice(geometry=GEO)
    _fill(serial)
    # Two slots: the first shape's rows and the AND op fill the board,
    # so the other five shapes must ship inline on every batch.
    with ShardedDevice(
        geometry=GEO, max_workers=2, board_slots=2
    ) as sharded:
        _fill(sharded)
        for batch in shapes:
            serial.engine.run_rows(BulkOp.AND, *batch)
            assert sharded.run_rows(BulkOp.AND, *batch).shards == 2
        assert sharded.block.board_entries == 2

        # A full directory is known before anything is pickled: the
        # repeat round publishes nothing, and no rejected shape is
        # remembered.
        published = []
        publish = sharded.block.publish
        sharded.block.publish = lambda payload: published.append(payload)
        try:
            for batch in shapes:
                serial.engine.run_rows(BulkOp.AND, *batch)
                sharded.run_rows(BulkOp.AND, *batch)
        finally:
            sharded.block.publish = publish
        assert published == []
        assert sharded.resident_plans == 1
        assert len(sharded._resident) + len(sharded._op_resident) == 2

        family = sharded.metrics.get("ambit_resident_plans_total")
        assert family.labels(event="inline").value == 10
        for dst, _, _ in shapes:
            for loc in dst:
                assert np.array_equal(
                    serial.read_row(loc), sharded.read_row(loc)
                )
