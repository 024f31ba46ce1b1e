"""The shared accounting block: layout, plan board, lifecycle.

Unit-level coverage of :class:`~repro.parallel.accounting.
SharedAccountingBlock` -- the fixed-layout shared-memory region that
carries worker telemetry and the resident plan board.  The integration
behaviour (what a :class:`ShardedDevice` does with it) lives in
``test_dispatch_budget.py`` / ``test_worker_health.py``; this file pins
the block's own contract, including the parts integration rarely
exercises: magic and version validation, overflow edges, and
cross-process attachment.
"""

import pickle

import pytest

from repro.errors import ConcurrencyError, ConfigError
from repro.parallel.accounting import SharedAccountingBlock
from repro.parallel.shm import live_segment_names, system_segments


def _block(**overrides):
    kwargs = dict(slots=3, board_slots=4, board_capacity=1024)
    kwargs.update(overrides)
    return SharedAccountingBlock.create(**kwargs)


def test_telemetry_round_trip():
    block = _block()
    try:
        block.write_telemetry(
            1, pid=4242, rows=17, fused_rows=12, rss_bytes=1 << 20,
            batches_served=3, busy_ns=1.5e6, heartbeat_ts=123.25,
        )
        t = block.read_telemetry(1)
        assert t.pid == 4242 and t.rows == 17 and t.fused_rows == 12
        assert t.fallback_rows == 5
        assert t.rss_bytes == 1 << 20 and t.batches_served == 3
        assert t.busy_ns == 1.5e6 and t.heartbeat_ts == 123.25
        # Neighbouring slots stay untouched.
        assert block.read_telemetry(0).pid == 0
        assert block.read_telemetry(2).rows == 0
    finally:
        block.release()


def test_clear_slots_zeroes_only_the_batch_prefix():
    block = _block()
    try:
        for shard in range(3):
            block.write_telemetry(
                shard, pid=1, rows=5, fused_rows=5, rss_bytes=0,
                batches_served=1, busy_ns=1.0, heartbeat_ts=1.0,
            )
        block.clear_slots(2)
        assert block.read_telemetry(0).rows == 0
        assert block.read_telemetry(1).rows == 0
        assert block.read_telemetry(2).rows == 5
    finally:
        block.release()


def test_board_publish_fetch_and_exhaustion():
    block = _block(board_slots=2, board_capacity=64)
    try:
        first = block.publish(b"alpha")
        second = block.publish(b"beta")
        assert (first, second) == (0, 1)
        assert block.fetch(0) == b"alpha"
        assert block.fetch(1) == b"beta"
        assert block.board_entries == 2
        assert block.board_used == 9
        # Directory full -> None, never an exception.
        assert block.publish(b"gamma") is None
        assert block.board_entries == 2
    finally:
        block.release()


def test_board_data_region_exhaustion():
    block = _block(board_slots=8, board_capacity=32)
    try:
        assert block.publish(b"a" * 30) == 0
        # 30 + 3 > 32: the payload no longer fits.
        assert block.publish(b"b" * 3) is None
        # A smaller one still does -- the region is append-only, not
        # all-or-nothing.
        assert block.publish(b"c" * 2) == 1
        assert block.fetch(1) == b"c" * 2
    finally:
        block.release()


def test_fetch_unpublished_id_is_a_protocol_error():
    block = _block()
    try:
        block.publish(b"only")
        with pytest.raises(ConcurrencyError, match="not published"):
            block.fetch(1)
        with pytest.raises(ConcurrencyError, match="not published"):
            block.fetch(-1)
    finally:
        block.release()


def test_attach_sees_published_state_and_never_unlinks():
    block = _block()
    name = block.name
    try:
        payload = pickle.dumps(("plan", [1, 2, 3]))
        entry = block.publish(payload)
        block.write_telemetry(
            2, pid=7, rows=9, fused_rows=9, rss_bytes=0,
            batches_served=1, busy_ns=2.0, heartbeat_ts=3.0,
        )

        attached = SharedAccountingBlock.attach(name)
        assert attached.slots == block.slots
        assert attached.board_slots == block.board_slots
        assert attached.board_capacity == block.board_capacity
        assert pickle.loads(attached.fetch(entry)) == ("plan", [1, 2, 3])
        assert attached.read_telemetry(2).rows == 9
        # The attachment writes telemetry the owner can read (the
        # worker->parent direction of the real protocol).
        attached.write_telemetry(
            0, pid=8, rows=4, fused_rows=4, rss_bytes=0,
            batches_served=2, busy_ns=5.0, heartbeat_ts=6.0,
        )
        assert block.read_telemetry(0).pid == 8
        attached.close()
        # A non-owner closing must not unlink the segment.
        assert SharedAccountingBlock.attach(name).slots == 3
    finally:
        block.release()
    assert name not in system_segments()


def test_attach_rejects_foreign_segments():
    from multiprocessing import shared_memory

    segment = shared_memory.SharedMemory(create=True, size=1024)
    try:
        with pytest.raises(ConfigError, match="not an accounting block"):
            SharedAccountingBlock.attach(segment.name)
    finally:
        segment.close()
        segment.unlink()


def test_attach_rejects_another_layout_version():
    block = _block()
    try:
        block._header[1] = 1  # the layout version field
        with pytest.raises(ConfigError, match="layout version 1"):
            SharedAccountingBlock.attach(block.name)
    finally:
        block.release()


def test_create_rejects_zero_slots():
    with pytest.raises(ConfigError, match="slot"):
        SharedAccountingBlock.create(slots=0)


def test_release_unlinks_and_is_idempotent():
    block = _block()
    name = block.name
    assert name in live_segment_names()
    block.release()
    block.release()
    assert name not in live_segment_names()
    assert name not in system_segments()
