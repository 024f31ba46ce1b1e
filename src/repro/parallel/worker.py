"""Worker-process side of the sharded simulator.

Each worker owns a process-global :class:`~repro.core.device.AmbitDevice`
built over the parent's :class:`~repro.parallel.shm.SharedRowStore`
segment, so the *functional* effect of every bulk operation it executes
(the numpy gathers/scatters of the batch engine) lands directly in the
parent-visible cell arrays.

The dispatch protocol is **resident-plan, zero-copy**:

* **Plans ship once.**  A batch's shard row-lists and its op (one of
  the nine ops or a compiled op) are *published* by the parent to the
  plan board of the shared
  :class:`~repro.parallel.accounting.SharedAccountingBlock`; the
  per-batch :class:`ShardJob` carries only board entry ids plus a few
  integers.  Workers fetch an entry the first time they see its id
  and memoise the decoded payload (:data:`_RESIDENT`), so a warm batch
  costs a couple of dict lookups -- and the worker's persistent
  :class:`~repro.engine.plan.PlanCache` keeps the compiled
  microprograms hot across batches on top of that.
* **Results travel through shared memory.**  A worker writes its
  counters (rows, fused/fallback split, busy-ns, RSS, heartbeat) into
  its shard's fixed-layout telemetry slot and returns only its shard
  index; the parent reconstructs :class:`ShardResult` views from the
  block and pickles nothing.

The split of responsibilities is strict:

* **Workers compute cells.**  A worker runs its shard's rows through its
  own :class:`~repro.engine.batch.BatchEngine`, which applies exactly
  the same fused-vs-per-row decision logic as the single-process path
  (hazard groups take the sequential walk), so cell contents are
  bit-exact by construction.
* **The parent computes accounting.**  Worker-side statistics, traces,
  and plan caches are private scratch state (reset per job); the parent
  re-derives the exact command trace, timing, and energy from its own
  plan cache (see :meth:`repro.engine.batch.BatchEngine.account_group`),
  and with them any tracer events.  Workers never trace.

Workers are handed *disjoint banks*, so no two processes ever write the
same (bank, subarray) slice; B-group scratch rows are per-subarray and
therefore also disjoint, and telemetry slots are per-shard within one
batch at a time.
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.dram.geometry import DramGeometry
from repro.dram.timing import TimingParameters

#: One row of a shard job: (bank, subarray, dk, source addresses in
#: input order, scratch addresses in slot order).  The nested tuples
#: make the spec self-describing for any op, so the worker needs no
#: per-op schema.
RowSpec = Tuple[int, int, int, Tuple[int, ...], Tuple[int, ...]]


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker needs to rebuild the device (picklable)."""

    shm_name: str
    geometry: DramGeometry
    timing: TimingParameters
    split_decoder: bool = True
    #: Name of the device's :class:`SharedAccountingBlock` segment.
    block_name: Optional[str] = None


@dataclass(frozen=True)
class ShardJob:
    """One worker's slice of a batched bulk operation.

    The resident-plan protocol keeps this O(1): after the parent has
    published a batch shape and an op once, a job is ``(op entry id,
    rows entry id, shard, clock)`` -- no row lists, no plan
    descriptions.  ``op_inline``/``rows`` exist only as the inline
    fallback for a full plan board, and the dispatch-budget tests
    assert the row fallback stays ``None`` in the steady state.
    """

    #: Plan-board entry id of the published op.
    op: Optional[int] = None
    #: Inline op when the plan board was full.
    op_inline: Optional[object] = None
    #: Plan-board entry id of the published shard row-lists.
    resident: Optional[int] = None
    #: Inline fallback when the plan board was full.
    rows: Optional[Tuple[RowSpec, ...]] = None
    #: Parent clock at dispatch; retention stamps written by this shard
    #: use bank-parallel time (all shards start together, as on real
    #: hardware) rather than the serialized global clock.
    start_ns: float = 0.0
    #: This job's shard index within the batch (and telemetry slot).
    shard: int = 0


@dataclass(frozen=True)
class ShardResult:
    """Parent-side view of one shard's telemetry slot.

    Workers no longer return this over the result pipe -- they return a
    bare shard index and the parent rebuilds the view from the shared
    accounting block (zero-copy).  The dataclass survives as the stable
    API the pool's telemetry folding consumes.
    """

    rows: int
    fused_rows: int
    fallback_rows: int
    #: Worker health telemetry.
    pid: int = 0
    #: Wall-clock nanoseconds this job spent executing.
    busy_ns: int = 0
    #: Peak resident set size of the worker process, bytes.
    rss_bytes: int = 0
    #: ``time.time()`` at job completion (the worker's heartbeat).
    heartbeat_ts: float = 0.0
    #: Shard jobs this worker process has served so far (including this).
    batches_served: int = 0


_STORE = None
_DEVICE = None
_BLOCK = None
_BATCHES_SERVED = 0
#: Memoised plan-board entries: id -> decoded payload.  Ids are
#: immutable for a device's lifetime, so this never invalidates.
_RESIDENT: Dict[int, object] = {}


def initialize_worker(config: WorkerConfig) -> None:
    """Pool initializer: attach the store and block, build the device.

    ``initialize_control_rows=False``: C0/C1 were stamped by the parent;
    re-poking them here would race other workers' reads for no reason.
    """
    global _STORE, _DEVICE, _BLOCK
    from repro.core.device import AmbitDevice
    from repro.parallel.accounting import SharedAccountingBlock
    from repro.parallel.shm import SharedRowStore

    _STORE = SharedRowStore.attach(config.shm_name, config.geometry)
    _DEVICE = AmbitDevice(
        geometry=config.geometry,
        timing=config.timing,
        split_decoder=config.split_decoder,
        row_store=_STORE,
        initialize_control_rows=False,
    )
    _BLOCK = (
        SharedAccountingBlock.attach(config.block_name)
        if config.block_name is not None
        else None
    )
    _RESIDENT.clear()


def _rss_bytes() -> int:
    """Peak RSS of this process in bytes (0 where unavailable)."""
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Linux reports kilobytes; macOS reports bytes.
        return peak * 1024 if peak < 1 << 40 else peak
    except Exception:  # pragma: no cover - platform fallback
        return 0


def _fetch_resident(entry_id: int):
    """Decode (and memoise) one plan-board entry."""
    cached = _RESIDENT.get(entry_id)
    if cached is None:
        cached = _RESIDENT[entry_id] = pickle.loads(_BLOCK.fetch(entry_id))
    return cached


def _job_rows(job: ShardJob) -> Tuple[RowSpec, ...]:
    """This job's row list: resident entry, or the inline fallback."""
    if job.resident is not None:
        return _fetch_resident(job.resident)[job.shard]
    if job.rows is None:  # pragma: no cover - dispatch contract
        raise RuntimeError("shard job carries neither resident id nor rows")
    return job.rows


def _job_op(job: ShardJob):
    """This job's op: resident entry, or the inline fallback."""
    if job.op is not None:
        return _fetch_resident(job.op)
    if job.op_inline is None:  # pragma: no cover - dispatch contract
        raise RuntimeError("shard job carries no operation")
    return job.op_inline


def run_shard(job: ShardJob) -> int:
    """Execute one shard job; results land in the accounting block.

    Returns the shard index -- the only payload that crosses the result
    pipe.  Everything else (counters, health telemetry) is written into
    the job's telemetry slot of the shared block.
    """
    from repro.dram.chip import RowLocation

    global _BATCHES_SERVED
    device = _DEVICE
    if device is None:  # pragma: no cover - initializer contract
        raise RuntimeError("worker used before initialize_worker ran")
    started = time.perf_counter_ns()
    # Worker stats and trace counts are scratch, reset per job; the
    # trace keeps no commands (nothing captures them here).  The plan
    # cache survives the reset: one template per op shape, bounded by
    # construction, warm between jobs.
    device.reset_stats()
    device.chip.clock_ns = job.start_ns

    op = _job_op(job)
    dst = []
    srcs = [[] for _ in range(op.arity)]
    temps = [[] for _ in range(op.num_temps)]
    for bank, sub, dk, src_addrs, temp_addrs in _job_rows(job):
        dst.append(RowLocation(bank, sub, dk))
        for column, address in zip(srcs, src_addrs):
            column.append(RowLocation(bank, sub, address))
        for column, address in zip(temps, temp_addrs):
            column.append(RowLocation(bank, sub, address))

    fused = device.engine.run_rows(op, dst, *srcs, temps=temps).fused_rows

    _BATCHES_SERVED += 1
    _BLOCK.write_telemetry(
        job.shard,
        pid=os.getpid(),
        rows=len(dst),
        fused_rows=fused,
        rss_bytes=_rss_bytes(),
        batches_served=_BATCHES_SERVED,
        busy_ns=time.perf_counter_ns() - started,
        heartbeat_ts=time.time(),
    )
    return job.shard


def crash(exit_code: int = 1) -> None:  # pragma: no cover - runs in worker
    """Kill the calling worker without cleanup (crash-recovery tests)."""
    import os

    os._exit(exit_code)


def stall(seconds: float) -> float:  # pragma: no cover - runs in worker
    """Occupy the calling worker for ``seconds`` (stall-fault injection).

    The worker stays alive and eventually returns, so a stalled shard is
    *detected* (results exceed the stall timeout) and then *recovered*
    (the extended wait drains it) rather than treated as a crash.
    """
    import time

    time.sleep(seconds)
    return seconds
