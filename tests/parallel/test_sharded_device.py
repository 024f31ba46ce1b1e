"""ShardedDevice is bit-exact against the single-process AmbitDevice.

The acceptance property of the tentpole: for every bulk operation, for
random inputs and uneven bank spreads, a batch through
:meth:`repro.parallel.device.ShardedDevice.run_rows` leaves cells,
counters, ``elapsed_ns``, per-bank busy time, and the full command trace
(energy is a pure fold over it) identical to the serial engine -- plus
the protocol edges: the stuck-row fallback, the quiesce-then-reset
rule, and worker-crash containment.  (Tracer-attached batches shard
and fuse too, and trace exactly as in process -- see
``test_remote_trace.py``.)
"""

import time
from weakref import WeakKeyDictionary

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.device import AmbitDevice
from repro.core.microprograms import BulkOp
from repro.dram.chip import RowLocation
from repro.dram.geometry import small_test_geometry
from repro.errors import ConcurrencyError
from repro.parallel import ShardedDevice
from repro.parallel.shm import live_segment_names, system_segments

ALL_OPS = tuple(BulkOp)

GEO = small_test_geometry(rows=32, row_bytes=64, banks=4, subarrays_per_bank=2)
DATA_ROWS = GEO.subarray.data_rows
WORDS = GEO.subarray.words_per_row

#: Uneven spread: rows per (bank, subarray), deliberately unbalanced and
#: including an idle bank so shard assignment must cope with holes.
UNEVEN_SPREAD = {(0, 0): 3, (0, 1): 2, (1, 0): 1, (3, 1): 4}


#: Command trace -> every command its device issued since :func:`_fill`.
_CAPTURED = WeakKeyDictionary()


def _fill(device, seed):
    """Seed every data row, capturing the device's commands from here on."""
    _CAPTURED[device.chip.trace] = device.chip.trace.open_capture()
    rng = np.random.default_rng(seed)
    for bank in range(GEO.banks):
        for sub in range(GEO.subarrays_per_bank):
            for addr in range(DATA_ROWS):
                device.write_row(
                    RowLocation(bank, sub, addr),
                    rng.integers(0, 2**63, size=WORDS, dtype=np.uint64),
                )


def _spread_rows(spread, arity):
    """Operand lists over a {(bank, sub): count} spread.

    Row ``j`` of a subarray uses dst ``3j``, sources ``3j+1``/``3j+2``
    and (for MAJ) wraps a third source back onto an earlier dst address
    -- a read-after-write hazard across batch items that forces the
    engine's fused-vs-per-row decision logic to run.
    """
    dst, src1, src2, src3 = [], [], [], []
    for (bank, sub), count in spread.items():
        for j in range(count):
            dst.append(RowLocation(bank, sub, 3 * j))
            src1.append(RowLocation(bank, sub, 3 * j + 1))
            src2.append(RowLocation(bank, sub, 3 * j + 2))
            src3.append(RowLocation(bank, sub, max(0, 3 * (j - 1))))
    return (
        dst,
        src1,
        src2 if arity >= 2 else None,
        src3 if arity >= 3 else None,
    )


def _assert_same_state(serial, sharded):
    for bank in range(GEO.banks):
        for sub in range(GEO.subarrays_per_bank):
            for addr in range(DATA_ROWS):
                loc = RowLocation(bank, sub, addr)
                assert np.array_equal(
                    serial.read_row(loc), sharded.read_row(loc)
                ), loc
    assert serial.elapsed_ns == sharded.elapsed_ns
    assert serial.busy_ns == sharded.busy_ns
    ss, sp = serial.controller.stats, sharded.controller.stats
    assert ss.aap_count == sp.aap_count
    assert ss.ap_count == sp.ap_count
    assert ss.bank_busy_ns == sp.bank_busy_ns
    assert ss.ops == sp.ops
    ts, tp = serial.chip.trace, sharded.chip.trace
    assert len(ts) == len(tp)
    assert _CAPTURED[ts] == _CAPTURED[tp]
    assert ts.weighted_activates() == tp.weighted_activates()
    cache_s = serial.controller.plan_cache
    cache_p = sharded.controller.plan_cache
    assert cache_s.hits == cache_p.hits
    assert cache_s.misses == cache_p.misses
    assert cache_s.evictions == cache_p.evictions


@pytest.mark.parametrize("op", ALL_OPS, ids=lambda op: op.value)
def test_all_ops_bit_exact_uneven_spread(op):
    serial = AmbitDevice(geometry=GEO)
    _fill(serial, seed=99)
    dst, src1, src2, src3 = _spread_rows(UNEVEN_SPREAD, op.arity)
    rep_serial = serial.engine.run_rows(op, dst, src1, src2, src3)

    with ShardedDevice(geometry=GEO, max_workers=3) as sharded:
        _fill(sharded, seed=99)
        rep_sharded = sharded.run_rows(op, dst, src1, src2, src3)
        assert rep_sharded.shards == 3
        assert rep_sharded.rows == rep_serial.rows
        assert rep_sharded.fused_rows == rep_serial.fused_rows
        _assert_same_state(serial, sharded)


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    op=st.sampled_from(ALL_OPS),
    seed=st.integers(0, 2**31),
    counts=st.lists(st.integers(0, 4), min_size=4, max_size=4),
    workers=st.integers(2, 5),
    data=st.data(),
)
def test_random_spreads_bit_exact(op, seed, counts, workers, data):
    spread = {}
    for bank, count in enumerate(counts):
        if count:
            sub = data.draw(st.integers(0, GEO.subarrays_per_bank - 1))
            spread[(bank, sub)] = count
    dst, src1, src2, src3 = _spread_rows(spread, op.arity)

    serial = AmbitDevice(geometry=GEO)
    _fill(serial, seed)
    rep_serial = serial.engine.run_rows(op, dst, src1, src2, src3)

    with ShardedDevice(geometry=GEO, max_workers=workers) as sharded:
        _fill(sharded, seed)
        rep_sharded = sharded.run_rows(op, dst, src1, src2, src3)
        assert rep_sharded.rows == rep_serial.rows
        assert rep_sharded.fused_rows == rep_serial.fused_rows
        _assert_same_state(serial, sharded)


def test_tracer_attached_still_shards():
    """A tracer no longer forces the serial fallback: the batch runs on
    the workers, and the merged state matches the serial traced run."""
    dst, src1, src2, _ = _spread_rows(UNEVEN_SPREAD, 2)
    serial = AmbitDevice(geometry=GEO)
    _fill(serial, seed=5)
    serial.attach_tracer()
    serial.engine.run_rows(BulkOp.AND, dst, src1, src2)

    with ShardedDevice(geometry=GEO, max_workers=3) as sharded:
        _fill(sharded, seed=5)
        sharded.attach_tracer()
        report = sharded.run_rows(BulkOp.AND, dst, src1, src2)
        assert report.shards == 3
        assert report.fused_rows == report.rows
        assert sharded.pool is not None
        _assert_same_state(serial, sharded)


def test_stuck_rows_fall_back_to_serial():
    with ShardedDevice(geometry=GEO, max_workers=3) as sharded:
        _fill(sharded, seed=6)
        dst, src1, src2, _ = _spread_rows(UNEVEN_SPREAD, 2)
        target = dst[0]
        sub = sharded.chip.bank(target.bank).subarray(target.subarray)
        sub.inject_stuck_row(0, np.zeros(WORDS, dtype=np.uint64))
        report = sharded.run_rows(BulkOp.OR, dst, src1, src2)
        assert report.shards == 1
        assert sharded.pool is None


def test_single_bank_batch_stays_in_process():
    with ShardedDevice(geometry=GEO, max_workers=3) as sharded:
        _fill(sharded, seed=7)
        spread = {(2, 0): 3}
        dst, src1, src2, _ = _spread_rows(spread, 2)
        report = sharded.run_rows(BulkOp.XOR, dst, src1, src2)
        assert report.shards == 1
        assert sharded.pool is None


def _slow_job(seconds):
    time.sleep(seconds)
    return True


def test_reset_stats_requires_quiesce():
    with ShardedDevice(geometry=GEO, max_workers=2) as sharded:
        pool = sharded._ensure_pool()
        future = pool.submit(_slow_job, 0.5)
        with pytest.raises(ConcurrencyError, match="quiesce"):
            sharded.reset_stats()
        sharded.quiesce()
        assert future.result() is True
        sharded.reset_stats()
        assert sharded.elapsed_ns == 0.0


def test_worker_crash_raises_concurrency_error_and_recovers():
    from repro.parallel.worker import crash

    with ShardedDevice(geometry=GEO, max_workers=2) as sharded:
        _fill(sharded, seed=8)
        pool = sharded._ensure_pool()
        future = pool.submit(crash, 3)
        with pytest.raises(ConcurrencyError, match="died"):
            pool.results([future])
        assert pool.broken

        # The next batch transparently rebuilds the pool.
        dst, src1, src2, _ = _spread_rows(UNEVEN_SPREAD, 2)
        report = sharded.run_rows(BulkOp.AND, dst, src1, src2)
        assert report.shards == 2
        assert sharded.pool is not pool
        name = sharded.store.name
    assert name not in live_segment_names()
    assert name not in system_segments()


def test_close_is_idempotent_and_unlinks():
    sharded = ShardedDevice(geometry=GEO, max_workers=2)
    name = sharded.store.name
    sharded.close()
    sharded.close()
    assert name not in live_segment_names()
    assert name not in system_segments()
