"""The sharded device: bank-partitioned, multi-process bulk execution.

:class:`ShardedDevice` is an :class:`~repro.core.device.AmbitDevice`-
compatible facade whose bulk operations run across a pool of worker
processes.  The cells of the whole chip live in one
:class:`~repro.parallel.shm.SharedRowStore` segment; a batch is
partitioned *by bank* into at most ``max_workers`` shards, each worker
executes its shard's rows through its own batch engine directly against
the shared cells, and the parent merges deterministically:

* **cells** -- written in place by the workers (disjoint banks, no
  merge needed);
* **counters / trace / energy** -- re-derived in the parent from its
  plan cache via
  :meth:`repro.engine.batch.BatchEngine.account_group`, in the exact
  bank-interleaved order the single-process engine uses, so statistics
  and golden traces are byte-identical to a serial run;
* **clock** -- elapsed (makespan) time is the busiest bank's serial
  time, identical to the single-process convention; per-shard busy
  times sum into ``busy_ns``;
* **trace events** -- with a tracer attached, the same parent-side
  accounting pass emits every row's events from command schedules
  bound from its plan templates, identical to a single-process traced
  run; workers never trace.  The parent adds one ``shard`` span per shard, carrying the
  worker's pid (a per-worker Chrome lane), and one ``batch`` span.

The dispatch path is engineered for throughput (see
``docs/SCALING.md``):

* **Resident plans** -- a batch's shard row-lists are *published once*
  to the plan board of the shared
  :class:`~repro.parallel.accounting.SharedAccountingBlock`; repeat
  batches of the same shape reuse the entry, so the per-batch message
  to each worker is a fingerprint id plus a few integers, never a row
  list or a plan object.
* **Zero-copy results** -- workers write counters and health telemetry
  into fixed-layout slots of the same block and return a bare shard
  index; the parent pickles nothing per batch, and
  the worker-health metric folding happens at *quiesce time* (or when
  statistics are observed), not per batch.
* **Auto-tuned tiers** -- ``dispatch="auto"`` consults
  :class:`~repro.parallel.tuner.AutoTuner` per request to pick the
  serial per-row walk, the in-process fused engine, or the sharded
  pool from per-tier cost models; ``dispatch`` can also force any
  tier.  Every tier is bit-exact; the choice moves wall-clock only.

Fallback: when a target subarray carries injected stuck-at faults
(worker processes cannot see the fault dictionaries), or when the batch
touches fewer than two banks, the batch transparently runs on the
in-process engine instead -- results are always correct; sharding is
purely a wall-clock optimisation.

Quiesce-then-reset protocol: ``reset_stats`` refuses (with
:class:`~repro.errors.ConcurrencyError`) while shard jobs are in
flight; call :meth:`quiesce` first.  See ``docs/SCALING.md``.
"""

from __future__ import annotations

import pickle
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.device import AmbitDevice
from repro.core.microprograms import StepProgram
from repro.dram.chip import RowLocation
from repro.dram.geometry import DramGeometry
from repro.dram.timing import TimingParameters
from repro.engine.batch import BatchReport
from repro.engine.scheduler import CommandGroup
from repro.errors import ConcurrencyError, ConfigError, DramProtocolError
from repro.parallel.accounting import (
    DEFAULT_BOARD_CAPACITY,
    DEFAULT_BOARD_SLOTS,
    SharedAccountingBlock,
)
from repro.parallel.pmap import default_jobs
from repro.parallel.pool import WorkerPool
from repro.parallel.shm import SharedRowStore
from repro.parallel.tuner import AutoTuner, DispatchTier
from repro.parallel.worker import (
    RowSpec,
    ShardJob,
    ShardResult,
    WorkerConfig,
    run_shard,
)

#: Valid ``dispatch`` modes: the three forced tiers plus the tuner.
DISPATCH_MODES = ("sharded", "fused", "serial", "auto")


class ShardedDevice:
    """A multi-process Ambit device over a shared-memory row store.

    Parameters
    ----------
    geometry / timing / split_decoder:
        As :class:`~repro.core.device.AmbitDevice`.  Analog charge
        models are not supported here -- their cell-level state is
        inherently sequential; use a plain device for Section 6 studies.
    max_workers:
        Shard parallelism; defaults to the scheduler-visible CPU count.
        With fewer than 2 workers every batch runs in-process.
    dispatch:
        ``"sharded"`` (default) fans every eligible batch across the
        pool; ``"fused"`` / ``"serial"`` force the in-process engine
        (fused kernels / per-row walk); ``"auto"`` asks the
        :class:`~repro.parallel.tuner.AutoTuner` per request.
    tuner:
        The cost-model tuner ``dispatch="auto"`` consults (a default
        one is built otherwise); see :meth:`AutoTuner.calibrate`.
    start_method:
        Multiprocessing start method (default: fork where available).
    crash_retries:
        Bounded retry-with-backoff on a worker crash: a batch whose pool
        dies is resubmitted (against a fresh pool) up to this many times
        before the :class:`~repro.errors.ConcurrencyError` propagates.
        Resubmission is safe: cells are only read back after a batch
        fully succeeds, microprograms re-copy their operands into the
        B-group, and accounting/trace merging happen strictly after the
        results arrive -- so a half-executed crashed batch leaves no
        observable state behind.  Set 0 to fail fast.
    crash_backoff_s:
        Base backoff before the first resubmission; doubles per attempt.
    stall_timeout_s:
        When set, a batch whose shards have not all answered within this
        many seconds counts a ``worker_stall`` detection (and, once the
        stragglers answer, a recovery) in the fault metrics.
    board_slots / board_capacity:
        Sizing knobs of the shared accounting block's plan board
        (entries and data bytes).  Overflow is always safe: plans fall
        back to inline shipment.

    Everything not overridden here (``bbop_row``, ``write_row``,
    ``profile``, ``elapsed_ns``, ...) delegates to the inner device,
    which shares the same cells, so mixed usage is always coherent.
    Observing the device through that delegation also folds any staged
    worker telemetry first, so metrics reads are never stale.
    """

    def __init__(
        self,
        geometry: Optional[DramGeometry] = None,
        timing: Optional[TimingParameters] = None,
        split_decoder: bool = True,
        max_workers: Optional[int] = None,
        dispatch: str = "sharded",
        tuner: Optional[AutoTuner] = None,
        start_method: Optional[str] = None,
        crash_retries: int = 2,
        crash_backoff_s: float = 0.05,
        stall_timeout_s: Optional[float] = None,
        board_slots: int = DEFAULT_BOARD_SLOTS,
        board_capacity: int = DEFAULT_BOARD_CAPACITY,
    ):
        from repro.obs.metrics import fault_counters

        if dispatch not in DISPATCH_MODES:
            raise ConfigError(
                f"dispatch must be one of {DISPATCH_MODES}; got {dispatch!r}"
            )
        geometry = geometry if geometry is not None else DramGeometry()
        self.store = SharedRowStore.create(geometry)
        self.device = AmbitDevice(
            geometry=geometry,
            timing=timing,
            split_decoder=split_decoder,
            row_store=self.store,
        )
        self.max_workers = (
            max_workers if max_workers is not None else default_jobs()
        )
        self.dispatch = dispatch
        self.tuner = tuner if tuner is not None else AutoTuner()
        self.crash_retries = crash_retries
        self.crash_backoff_s = crash_backoff_s
        self.stall_timeout_s = stall_timeout_s
        self.block = SharedAccountingBlock.create(
            slots=max(1, self.max_workers),
            board_slots=board_slots,
            board_capacity=board_capacity,
        )
        self._faults = fault_counters(self.device.metrics)
        self._m_dispatch = self.device.metrics.counter(
            "ambit_dispatch_total",
            "Bulk batches executed, by dispatch tier",
            labels=("tier",),
        )
        self._m_resident = self.device.metrics.counter(
            "ambit_resident_plans_total",
            "Resident-plan protocol traffic",
            labels=("event",),
        )
        self._stalled_jobs = 0
        self._start_method = start_method
        self._pool: Optional[WorkerPool] = None
        self._closed = False
        #: Monotonic batch identity: stamps crash context and the
        #: linking spans of traced batches.
        self._batch_seq = 0
        #: Plan-board entries the board accepted, by payload: shard
        #: row-lists (nested rows tuple) and ops.  Bounded by the
        #: board's slot count.
        self._resident: Dict[Tuple, int] = {}
        self._op_resident: Dict[StepProgram, int] = {}

    # ------------------------------------------------------------------
    # Delegation
    # ------------------------------------------------------------------
    def __getattr__(self, name: str):
        # Only called for attributes not found on ShardedDevice itself;
        # forwards the full AmbitDevice API (bbop_row, write_row,
        # profile, elapsed_ns, tracer, ...).  Any such observation first
        # folds staged worker telemetry, so delegated statistics are
        # consistent without per-batch metric traffic.
        device = self.__dict__.get("device")
        if device is None:
            raise AttributeError(name)
        pool = self.__dict__.get("_pool")
        if pool is not None:
            pool.fold_telemetry()
        return getattr(device, name)

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    @property
    def pool(self) -> Optional[WorkerPool]:
        """The live worker pool (``None`` until first parallel batch)."""
        return self._pool

    @property
    def resident_plans(self) -> int:
        """Batch shapes published to the plan board."""
        return len(self._resident)

    def _ensure_pool(self) -> WorkerPool:
        if self._pool is None or self._pool.broken:
            if self._pool is not None:
                self._pool.shutdown()
            self._pool = WorkerPool(
                WorkerConfig(
                    shm_name=self.store.name,
                    geometry=self.device.geometry,
                    timing=self.device.timing,
                    split_decoder=self.device.controller.split_decoder,
                    block_name=self.block.name,
                ),
                max_workers=self.max_workers,
                start_method=self._start_method,
                metrics=self.device.metrics,
            )
        return self._pool

    def quiesce(self) -> None:
        """Block until no shard jobs are in flight, then fold telemetry."""
        if self._pool is not None:
            self._pool.quiesce()

    def reset_stats(self) -> None:
        """Clear statistics -- only when the pool is quiet.

        Enforces the quiesce-then-reset protocol: resetting while a
        shard job is in flight would interleave half-merged counters
        with fresh ones, silently corrupting every later ``profile()``.
        Telemetry staged but not yet folded belongs to the epoch being
        zeroed, so it is dropped, not folded into the fresh one.
        """
        if self._pool is not None and self._pool.inflight:
            raise ConcurrencyError(
                f"reset_stats with {self._pool.inflight} shard job(s) in "
                f"flight; call quiesce() first (quiesce-then-reset "
                f"protocol, see docs/SCALING.md)"
            )
        if self._pool is not None:
            self._pool.drop_staged_telemetry()
        self.device.reset_stats()

    def close(self) -> None:
        """Shut down the pool and unlink the shared segments (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        self.block.release()
        self.device.close()

    def __enter__(self) -> "ShardedDevice":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Dispatch tier selection
    # ------------------------------------------------------------------
    def _select_tier(
        self, rows: int, row_bytes: int, sharded_ok: bool, shards: int
    ) -> DispatchTier:
        mode = self.dispatch
        if mode == "serial":
            return DispatchTier.SERIAL
        if mode == "fused":
            return DispatchTier.FUSED
        if mode == "sharded":
            return DispatchTier.SHARDED if sharded_ok else DispatchTier.FUSED
        tier = self.tuner.choose(
            rows=rows,
            row_bytes=row_bytes,
            shards=shards if sharded_ok else 1,
            jobs=self.max_workers,
        )
        if tier is DispatchTier.SHARDED and not sharded_ok:
            tier = DispatchTier.FUSED  # pragma: no cover - tuner prices it out
        return tier

    # ------------------------------------------------------------------
    # Sharded bulk execution
    # ------------------------------------------------------------------
    def run_rows(
        self,
        op: StepProgram,
        dst: Sequence[RowLocation],
        *srcs: Optional[Sequence[RowLocation]],
        temps: Sequence[Sequence[RowLocation]] = (),
    ) -> BatchReport:
        """Execute ``dst[i] = op(...)`` for every row on the chosen tier.

        Same contract and same observable outcome (cells, counters,
        elapsed time, energy, command trace, tracer-sink aggregates) as
        :meth:`repro.engine.batch.BatchEngine.run_rows`; only the
        wall-clock time and the ``shards`` field of the report differ.
        This is :meth:`run_groups` over the engine's ``plan_groups``.
        """
        return self.run_groups(
            op, self.device.engine.plan_groups(op, dst, *srcs, temps=temps)
        )

    def run_groups(self, op: StepProgram, groups) -> BatchReport:
        """Execute groups planned by ``engine.plan_groups``.

        The plan resolved the rows through the parent's repair map, so
        worker processes only ever see healthy (post-repair) rows and
        need no view of the repair table.  The op itself (one of the
        nine ops or a compiled op) is published through the plan board
        once; workers resolve it by entry id, and the parent re-derives
        accounting and traces from the plan's templates under the op's
        label.
        """
        engine = self.device.engine
        banks = list(dict.fromkeys(group.bank for group in groups))
        shards = min(self.max_workers, len(banks))
        rows = sum(len(group.indices) for group in groups)
        sharded_ok = (
            shards >= 2
            and self._parallel_eligible()
            and not self._faulty_subarrays(groups)
        )
        tier = self._select_tier(
            rows, self.device.row_bytes, sharded_ok, shards
        )
        self._m_dispatch.labels(tier=tier.value).inc()
        if tier is DispatchTier.SERIAL:
            return engine.run_groups(op, groups, fuse=False)
        if tier is DispatchTier.FUSED or not sharded_ok:
            # In-process fallback: plan-cache traffic, counters, trace,
            # and cells are those of the plain engine by construction.
            return engine.run_groups(op, groups)

        self._check_precharged(banks)
        assignment = {bank: i % shards for i, bank in enumerate(banks)}
        shard_rows: List[List[RowSpec]] = [[] for _ in range(shards)]
        for group in groups:
            shard_rows[assignment[group.bank]].extend(
                (group.bank, group.subarray, tuple(binding))
                for binding in group.rows
            )
        return self._run_sharded(
            op, engine, groups, rows, shard_rows, assignment
        )

    def run_compiled(self, cop, dst, operands, temps) -> BatchReport:
        """``run_rows(cop, dst, *operands, temps=temps)``.

        Kept only because ``bench/layers.py`` wraps this name; nothing
        under ``src/`` calls it.  Remove it when a benchmark change
        edits that file's ``LAYERS``.
        """
        return self.run_rows(cop, dst, *operands, temps=temps)

    def _check_precharged(self, banks) -> None:
        # Fail before any worker mutates cells: the serial engine raises
        # on an un-precharged bank, and so must we.
        chip = self.device.chip
        for bank in banks:
            if chip.bank(bank).open_subarray is not None:
                raise DramProtocolError(
                    f"bank {bank} must be precharged before a bulk operation"
                )

    def _run_sharded(
        self,
        op: StepProgram,
        engine,
        groups,
        total_rows: int,
        shard_rows: List[List[RowSpec]],
        assignment: Dict[int, int],
    ) -> BatchReport:
        """Sharded tail: publish, submit (with crash retry), merge."""
        chip = self.device.chip
        shards = len(shard_rows)
        self._batch_seq += 1
        batch_id = self._batch_seq

        # Rows first: on a nearly full board the batch shape, which the
        # job would otherwise ship inline, gets the last slot.
        resident = self._publish_rows(shard_rows)
        op_ref = self._publish_op(op)

        start_ns = chip.clock_ns
        attempt = 0
        self._stalled_jobs = 0
        while True:
            try:
                pool = self._ensure_pool()
                self.block.clear_slots(shards)
                futures = [
                    pool.submit(
                        run_shard,
                        ShardJob(
                            op=op_ref,
                            op_inline=op if op_ref is None else None,
                            resident=resident,
                            rows=(
                                tuple(rows) if resident is None else None
                            ),
                            start_ns=start_ns,
                            shard=shard,
                        ),
                        batch_id=batch_id,
                    )
                    for shard, rows in enumerate(shard_rows)
                ]
                pool.results(
                    futures,
                    stall_timeout_s=self.stall_timeout_s,
                    on_stall=self._note_stall,
                )
                break
            except ConcurrencyError:
                # Bounded retry-with-backoff: a crashed batch left no
                # observable state (accounting, traces, and readbacks
                # all happen after success), so resubmitting the whole
                # batch -- under a fresh batch id, against a rebuilt
                # pool -- is deterministic and safe.
                self._faults["detected"].labels(kind="worker_crash").inc()
                if attempt >= self.crash_retries:
                    self._faults["unrecovered"].labels(
                        kind="worker_crash"
                    ).inc()
                    raise
                attempt += 1
                time.sleep(self.crash_backoff_s * (2 ** (attempt - 1)))
                self._batch_seq += 1
                batch_id = self._batch_seq
        if attempt:
            self._faults["recovered"].labels(kind="worker_crash").inc()
        if self._stalled_jobs:
            self._faults["recovered"].labels(kind="worker_stall").inc(
                self._stalled_jobs
            )
            self._stalled_jobs = 0
        # Zero-copy result read-back: every shard's counters and health
        # telemetry live in the accounting block; the result pipe
        # carried only shard indices.
        results = self._shard_results(shards)
        pool.note_results(results, batch_id)

        # Deterministic merge: accounting (and any tracer events) in the
        # parent, in the exact bank-interleaved order of the
        # single-process engine.
        self._account(engine, groups)
        if chip.tracer is not None:
            self._trace_spans(
                op, chip.tracer, groups, assignment, shard_rows, results,
                start_ns, batch_id,
            )
        fused = sum(result.fused_rows for result in results)
        return self._report(engine, groups, total_rows, fused, shards)

    # ------------------------------------------------------------------
    # Resident-plan publication
    # ------------------------------------------------------------------
    def _publish_rows(self, shard_rows: List[List[RowSpec]]) -> Optional[int]:
        """Publish (or reuse) this batch shape's plan-board entry.

        The fingerprint is the nested row tuple itself -- independent of
        the operation, so e.g. an AND and an XOR over the same operand
        layout share one entry.  Returns ``None`` when the board is
        full; the batch then ships rows inline (correct, just slower).
        """
        return self._publish(
            self._resident, tuple(tuple(rows) for rows in shard_rows)
        )

    def _publish_op(self, op: StepProgram) -> Optional[int]:
        """Publish (or reuse) an op's plan-board entry.

        Ops are hashable and picklable, so each distinct op's steps
        cross the pool once; warm batches reference the entry id.  On a
        full board (``None``) the op pickles with every job instead.
        """
        return self._publish(self._op_resident, op)

    def _publish(self, memo: Dict[object, int], payload) -> Optional[int]:
        """The board entry id of ``payload``, publishing it on first use.

        Only accepted ids are memoised, so the memos stay as small as
        the board; once its directory is full a new payload is not even
        pickled.  Every rejection counts an ``inline`` event.
        """
        rid = memo.get(payload)
        if rid is not None:
            self._m_resident.labels(event="reused").inc()
            return rid
        block = self.block
        if block.board_entries < block.board_slots:
            rid = block.publish(
                pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            )
        if rid is None:
            self._m_resident.labels(event="inline").inc()
            return None
        memo[payload] = rid
        self._m_resident.labels(event="published").inc()
        return rid

    def _shard_results(self, shards: int) -> List[ShardResult]:
        """Rebuild the batch's :class:`ShardResult` views from the block."""
        results = []
        for shard in range(shards):
            t = self.block.read_telemetry(shard)
            results.append(
                ShardResult(
                    rows=t.rows,
                    fused_rows=t.fused_rows,
                    fallback_rows=t.fallback_rows,
                    pid=t.pid,
                    busy_ns=t.busy_ns,
                    rss_bytes=t.rss_bytes,
                    heartbeat_ts=t.heartbeat_ts,
                    batches_served=t.batches_served,
                )
            )
        return results

    # ------------------------------------------------------------------
    def _trace_spans(
        self,
        op,
        tracer,
        groups,
        assignment: Dict[int, int],
        shard_rows: List[List[RowSpec]],
        results: List[ShardResult],
        start_ns: float,
        batch_id: int,
    ) -> None:
        """Decorate a traced batch with its shard and batch spans.

        The rows' own events were already emitted by the accounting
        pass.  Each shard gets one span over its groups' accounted time,
        carrying the worker's pid for a per-worker Chrome lane; one
        ``batch`` span covers the whole batch.  All share the batch id.
        """
        busy_ns = [0.0] * len(shard_rows)
        for group in groups:
            busy_ns[assignment[group.bank]] += group.duration_ns
        for shard, result in enumerate(results):
            tracer.span(
                "shard",
                start_ns,
                busy_ns[shard],
                pid=result.pid,
                batch=batch_id,
                shard=shard,
                rows=len(shard_rows[shard]),
            )
        tracer.span(
            "batch",
            start_ns,
            self.device.chip.clock_ns - start_ns,
            op=op.value,
            batch=batch_id,
            rows=sum(len(rows) for rows in shard_rows),
            shards=len(shard_rows),
        )

    # ------------------------------------------------------------------
    def _parallel_eligible(self) -> bool:
        return self.max_workers >= 2 and not self._closed

    def _faulty_subarrays(self, groups) -> bool:
        # Worker processes cannot see the parent's injected fault state
        # (stuck dictionaries, DCC faults, armed TRA hooks, or rerouted
        # negations -- none live in the shared segment), so any of it in
        # a target subarray forces the in-process path.
        chip = self.device.chip
        dcc_route = self.device.controller.dcc_route
        return any(
            chip.bank(group.bank).subarray(group.subarray).has_faults
            or dcc_route.get((group.bank, group.subarray), 0)
            for group in groups
        )

    def _note_stall(self, pending: int) -> None:
        # Called by WorkerPool.results when shards exceed the stall
        # timeout; results keeps blocking afterwards, and the batch loop
        # counts the recovery once the stragglers actually answer.
        self._stalled_jobs += pending
        self._faults["detected"].labels(kind="worker_stall").inc(pending)

    def _command_groups(self, groups) -> List[CommandGroup]:
        return [
            CommandGroup(bank=g.bank, duration_ns=g.duration_ns, payload=g)
            for g in groups
        ]

    def _account(self, engine, groups) -> None:
        for issued in engine.scheduler.order(self._command_groups(groups)):
            engine.account_group(issued.payload)

    def _report(self, engine, groups, rows, fused, shards) -> BatchReport:
        return BatchReport(
            rows=rows,
            fused_rows=fused,
            fallback_rows=rows - fused,
            parallelism=engine.scheduler.report(self._command_groups(groups)),
            shards=shards,
        )
