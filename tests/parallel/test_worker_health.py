"""Worker health telemetry: gauges, crash context, reset atomicity.

Shard workers report pid, busy time, RSS, and a heartbeat with every
:class:`~repro.parallel.worker.ShardResult`; the pool folds them into
``ambit_worker_*`` metric families.  A dead worker must surface as a
:class:`~repro.errors.ConcurrencyError` naming the pid, exit code, and
in-flight batch id, and ``reset_stats`` must zero the whole registry --
counters, gauges, histograms -- in one quiesced epoch.
"""

import numpy as np
import pytest

from repro.core.microprograms import BulkOp
from repro.dram.chip import RowLocation
from repro.dram.geometry import small_test_geometry
from repro.errors import ConcurrencyError
from repro.parallel import ShardedDevice

GEO = small_test_geometry(rows=32, row_bytes=64, banks=4, subarrays_per_bank=2)
WORDS = GEO.subarray.words_per_row

SPREAD = {(0, 0): 3, (1, 0): 2, (2, 1): 2, (3, 0): 1}


def _rows(spread, arity=2):
    dst, src1, src2 = [], [], []
    for (bank, sub), count in spread.items():
        for j in range(count):
            dst.append(RowLocation(bank, sub, 3 * j))
            src1.append(RowLocation(bank, sub, 3 * j + 1))
            src2.append(RowLocation(bank, sub, 3 * j + 2))
    return dst, src1, src2 if arity >= 2 else None


def _fill(device, seed):
    rng = np.random.default_rng(seed)
    for loc in [
        RowLocation(bank, sub, addr)
        for bank in range(GEO.banks)
        for sub in range(GEO.subarrays_per_bank)
        for addr in range(GEO.subarray.data_rows)
    ]:
        device.write_row(
            loc, rng.integers(0, 2**63, size=WORDS, dtype=np.uint64)
        )


def _gauge_values(registry, name):
    family = registry.get(name)
    if family is None:
        return {}
    return {labels: child.value for labels, child in family.children.items()}


def test_shard_results_populate_worker_gauges():
    with ShardedDevice(geometry=GEO, max_workers=3) as sharded:
        _fill(sharded, 1)
        dst, src1, src2 = _rows(SPREAD)
        rep1 = sharded.run_rows(BulkOp.AND, dst, src1, src2)
        rep2 = sharded.run_rows(BulkOp.XOR, dst, src1, src2)
        registry = sharded.metrics

        batches = _gauge_values(registry, "ambit_worker_batches_total")
        assert batches, "no worker telemetry recorded"
        # One shard job per shard per batch.
        assert sum(batches.values()) == rep1.shards + rep2.shards
        busy = _gauge_values(registry, "ambit_worker_busy_ns_total")
        assert all(busy[pid] > 0 for pid in batches)
        rss = _gauge_values(registry, "ambit_worker_rss_bytes")
        assert all(rss[pid] > 0 for pid in batches)
        beat = _gauge_values(registry, "ambit_worker_heartbeat_ts")
        assert all(beat[pid] > 0 for pid in batches)
        last = _gauge_values(registry, "ambit_worker_last_batch")
        # Every worker's last-served batch is one of the two batch ids.
        assert set(last.values()) <= {1.0, 2.0}
        assert 2.0 in last.values()


def test_worker_crash_reports_pid_exit_code_and_batch():
    from repro.parallel.worker import crash

    with ShardedDevice(geometry=GEO, max_workers=2) as sharded:
        pool = sharded._ensure_pool()
        future = pool.submit(crash, 5, batch_id=77)
        with pytest.raises(ConcurrencyError) as excinfo:
            pool.results([future])
        message = str(excinfo.value)
        # The message names pid, exit code, and the in-flight batch.
        # (The code may be the crasher's own 5 or the -SIGTERM of the
        # executor tearing down its siblings, depending on reap order.)
        assert "worker pid=" in message
        assert "exit code=" in message
        assert "batch id=77" in message
        dead, batch_ids = pool.crash_info
        assert batch_ids == [77]
        assert dead and all(code != 0 for _, code in dead)
        crashes = sharded.metrics.get("ambit_worker_crashes_total")
        assert crashes is not None and crashes.value >= 1


def test_reset_stats_zeroes_metrics_and_counters_atomically():
    with ShardedDevice(geometry=GEO, max_workers=2) as sharded:
        _fill(sharded, 2)
        dst, src1, src2 = _rows(SPREAD)
        report = sharded.run_rows(BulkOp.OR, dst, src1, src2)
        registry = sharded.metrics
        assert sum(
            _gauge_values(registry, "ambit_worker_batches_total").values()
        ) > 0
        registry.collect()
        assert sum(_gauge_values(registry, "ambit_ops_total").values()) > 0
        latency = registry.get("ambit_op_latency_ns")
        assert any(c.count for c in latency.children.values())

        sharded.quiesce()
        sharded.reset_stats()

        # Device counters and the whole registry reset in one epoch:
        # scalars to zero, histograms emptied, worker gauges cleared.
        assert sharded.elapsed_ns == 0.0
        registry.collect()
        assert sum(_gauge_values(registry, "ambit_ops_total").values()) == 0
        assert all(
            v == 0.0
            for v in _gauge_values(
                registry, "ambit_worker_batches_total"
            ).values()
        )
        assert all(
            v == 0.0
            for v in _gauge_values(
                registry, "ambit_worker_busy_ns_total"
            ).values()
        )
        latency = registry.get("ambit_op_latency_ns")
        assert all(c.count == 0 for c in latency.children.values())
        assert all(c.sum == 0.0 for c in latency.children.values())

        # The next batch lands in the fresh epoch, consistent again.
        # (Worker telemetry folds at quiesce time, not per batch.)
        sharded.run_rows(BulkOp.OR, dst, src1, src2)
        sharded.quiesce()
        registry.collect()
        assert sum(
            _gauge_values(registry, "ambit_ops_total").values()
        ) == len(dst)
        assert sum(
            _gauge_values(registry, "ambit_worker_batches_total").values()
        ) == report.shards


def test_reset_stats_still_requires_quiesce_first():
    with ShardedDevice(geometry=GEO, max_workers=2) as sharded:
        pool = sharded._ensure_pool()
        future = pool.submit(_slow_job, 0.4)
        with pytest.raises(ConcurrencyError, match="quiesce"):
            sharded.reset_stats()
        sharded.quiesce()
        assert future.result() is True
        sharded.reset_stats()


def _slow_job(seconds):
    import time

    time.sleep(seconds)
    return True
