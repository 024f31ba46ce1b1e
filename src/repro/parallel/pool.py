"""Persistent worker pool with in-flight tracking and health telemetry.

A thin wrapper over :class:`concurrent.futures.ProcessPoolExecutor`
that (a) builds every worker's shared-memory device via
:func:`repro.parallel.worker.initialize_worker`, (b) tracks in-flight
futures (and which batch each belongs to) so the quiesce-then-reset
protocol can be enforced and crashes can name the batch they killed,
(c) converts a dead worker into a :class:`~repro.errors.ConcurrencyError`
carrying the worker's pid, exit code, and in-flight batch id instead of
the executor's opaque ``BrokenProcessPool``, and (d) **stages**
per-worker telemetry (read zero-copy from the shared accounting block)
for folding into the device's metrics registry at *quiesce time* --
``ambit_worker_*`` families update when :meth:`fold_telemetry` runs,
not per batch, keeping the batch hot path free of metric traffic.

Dispatch accounting: every submission and result is measured
(:class:`PoolIOStats` -- call counts plus pickled byte sizes), which is
what the dispatch-budget test suite asserts against: per-batch worker
messages must stay O(1) and must not regrow row or plan payloads.

Start method: ``fork`` where the platform offers it (workers attach to
the segment by name either way, but fork skips the per-worker import
cost), overridable with the ``REPRO_MP_START`` environment variable or
the ``start_method`` argument.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ConcurrencyError
from repro.parallel.worker import ShardResult, WorkerConfig, initialize_worker


def default_start_method() -> str:
    """``REPRO_MP_START`` override, else fork where available."""
    override = os.environ.get("REPRO_MP_START")
    if override:
        return override
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else methods[0]


@dataclass
class PoolIOStats:
    """Bytes and calls crossing the pool's process boundary.

    ``submitted_bytes`` / ``received_bytes`` measure the pickled size of
    each job's arguments and each result -- the same serialisation the
    executor performs -- so a regression that starts shipping row lists
    or plan objects again is directly visible as a byte-count jump.
    """

    submitted_jobs: int = 0
    submitted_bytes: int = 0
    received_results: int = 0
    received_bytes: int = 0
    #: Running description of the largest single submission.
    max_submission_bytes: int = 0

    def snapshot(self) -> "PoolIOStats":
        """An immutable copy of the counters as of this call."""
        return PoolIOStats(
            self.submitted_jobs,
            self.submitted_bytes,
            self.received_results,
            self.received_bytes,
            self.max_submission_bytes,
        )

    def delta(self, since: "PoolIOStats") -> "PoolIOStats":
        """The traffic between ``since`` (an earlier snapshot) and now."""
        return PoolIOStats(
            self.submitted_jobs - since.submitted_jobs,
            self.submitted_bytes - since.submitted_bytes,
            self.received_results - since.received_results,
            self.received_bytes - since.received_bytes,
            max(self.max_submission_bytes, since.max_submission_bytes),
        )


class WorkerPool:
    """A persistent pool of shard workers over one shared row store."""

    def __init__(
        self,
        config: WorkerConfig,
        max_workers: int,
        start_method: Optional[str] = None,
        metrics: Optional[object] = None,
    ):
        if max_workers < 1:
            raise ConcurrencyError(f"max_workers must be >= 1; got {max_workers}")
        self.max_workers = max_workers
        self.broken = False
        #: ``(pid, exit_code, batch_ids)`` context of the last crash, for
        #: post-mortem inspection after the :class:`ConcurrencyError`.
        self.crash_info: Optional[Tuple[List[Tuple[int, int]], List[int]]] = None
        #: Dispatch traffic accounting (see :class:`PoolIOStats`).
        self.io = PoolIOStats()
        self._lock = threading.Lock()
        self._inflight: Dict[Future, Optional[int]] = {}
        self._procs: Dict[int, object] = {}
        #: Telemetry staged for quiesce-time folding: (result, batch_id).
        self._staged: List[Tuple[ShardResult, Optional[int]]] = []
        self._m_batches = self._m_busy = self._m_rss = None
        self._m_beat = self._m_last = self._m_crashes = None
        if metrics is not None:
            self._m_batches = metrics.counter(
                "ambit_worker_batches_total",
                "Shard jobs served, per worker process",
                labels=("pid",),
            )
            self._m_busy = metrics.counter(
                "ambit_worker_busy_ns_total",
                "Wall-clock nanoseconds spent executing shard jobs, "
                "per worker process",
                labels=("pid",),
            )
            self._m_rss = metrics.gauge(
                "ambit_worker_rss_bytes",
                "Peak resident set size, per worker process",
                labels=("pid",),
            )
            self._m_beat = metrics.gauge(
                "ambit_worker_heartbeat_ts",
                "Unix time of the worker's last completed shard job",
                labels=("pid",),
            )
            self._m_last = metrics.gauge(
                "ambit_worker_last_batch",
                "Batch id of the worker's last completed shard job",
                labels=("pid",),
            )
            self._m_crashes = metrics.counter(
                "ambit_worker_crashes_total",
                "Worker processes that died mid-batch",
            )
        self._executor = ProcessPoolExecutor(
            max_workers=max_workers,
            mp_context=multiprocessing.get_context(
                start_method or default_start_method()
            ),
            initializer=initialize_worker,
            initargs=(config,),
        )

    # ------------------------------------------------------------------
    def submit(
        self, fn: Callable, *args, batch_id: Optional[int] = None
    ) -> Future:
        """Submit a job; the future is tracked until it completes."""
        if self.broken:
            raise ConcurrencyError(
                "worker pool is broken (a worker process died); shut it "
                "down and build a fresh pool"
            )
        # Measure what the executor is about to serialise: the dispatch
        # budget the perf-invariant tests gate on.
        payload = len(pickle.dumps(args, protocol=pickle.HIGHEST_PROTOCOL))
        try:
            future = self._executor.submit(fn, *args)
        except BrokenProcessPool as exc:
            # A worker died between batches (e.g. an injected crash job);
            # flag the pool so callers rebuild it, under the same error
            # type the results path uses.
            self.broken = True
            dead = self._dead_workers()
            self.crash_info = (dead, [])
            if self._m_crashes is not None:
                self._m_crashes.inc(max(1, len(dead)))
            raise ConcurrencyError(
                f"worker pool broke before submission "
                f"({self._describe_crash(dead, [])})"
            ) from exc
        with self._lock:
            self.io.submitted_jobs += 1
            self.io.submitted_bytes += payload
            if payload > self.io.max_submission_bytes:
                self.io.max_submission_bytes = payload
            self._inflight[future] = batch_id
            # Keep our own references to the worker Process objects:
            # the executor drops its dict entries while tearing down a
            # broken pool, but a held handle still reports the cached
            # exit code for the crash report.
            self._procs.update(
                getattr(self._executor, "_processes", None) or {}
            )
        future.add_done_callback(self._discard)
        return future

    def _discard(self, future: Future) -> None:
        with self._lock:
            self._inflight.pop(future, None)

    # ------------------------------------------------------------------
    @property
    def inflight(self) -> int:
        """Jobs submitted but not yet completed."""
        with self._lock:
            return len(self._inflight)

    def quiesce(self) -> None:
        """Block until every in-flight job completed, then fold telemetry."""
        while True:
            with self._lock:
                pending = list(self._inflight)
            if not pending:
                break
            wait(pending)
        self.fold_telemetry()

    def results(
        self,
        futures: List[Future],
        stall_timeout_s: Optional[float] = None,
        on_stall: Optional[Callable[[int], None]] = None,
    ) -> List[object]:
        """Collect results, translating a dead worker into a clear error.

        On a crash the raised :class:`~repro.errors.ConcurrencyError`
        names the dead worker's pid and exit code and the batch id(s)
        that were in flight -- the context a post-mortem needs before
        deciding whether the shared row store can still be trusted.

        ``stall_timeout_s`` arms slow-worker detection: if any future is
        still pending after that many seconds, ``on_stall`` is called
        once with the number of stalled jobs, then collection continues
        to block (a stalled worker that eventually answers is recovered,
        not failed).
        """
        if stall_timeout_s is not None:
            done, pending = wait(futures, timeout=stall_timeout_s)
            if pending and on_stall is not None:
                on_stall(len(pending))
        with self._lock:
            batch_ids = sorted(
                {
                    self._inflight[f]
                    for f in futures
                    if f in self._inflight and self._inflight[f] is not None
                }
            )
        try:
            results = [future.result() for future in futures]
        except BrokenProcessPool as exc:
            self.broken = True
            dead = self._dead_workers()
            self.crash_info = (dead, batch_ids)
            if self._m_crashes is not None:
                self._m_crashes.inc(max(1, len(dead)))
            raise ConcurrencyError(
                f"a worker process died mid-batch "
                f"({self._describe_crash(dead, batch_ids)}); the shared "
                f"row store may hold partial results -- reset or rebuild "
                f"the device before trusting cell contents"
            ) from exc
        with self._lock:
            self.io.received_results += len(results)
            self.io.received_bytes += sum(
                len(pickle.dumps(r, protocol=pickle.HIGHEST_PROTOCOL))
                for r in results
            )
        return results

    def _dead_workers(self, timeout_s: float = 2.0) -> List[Tuple[int, int]]:
        """``(pid, exit_code)`` of workers that died abnormally.

        Polls briefly: right after a crash the dying process may not be
        reaped yet (``exitcode`` still ``None``), and the executor is
        concurrently tearing its siblings down.
        """
        with self._lock:
            self._procs.update(
                getattr(self._executor, "_processes", None) or {}
            )
            processes = dict(self._procs)
        deadline = time.monotonic() + timeout_s
        while True:
            dead = []
            pending = False
            for pid, process in processes.items():
                code = process.exitcode
                if code is None:
                    pending = True
                elif code != 0:
                    dead.append((pid, code))
            if dead or not pending or time.monotonic() >= deadline:
                return sorted(dead)
            time.sleep(0.01)

    @staticmethod
    def _describe_crash(
        dead: List[Tuple[int, int]], batch_ids: List[int]
    ) -> str:
        if dead:
            workers = ", ".join(
                f"worker pid={pid} exit code={code}" for pid, code in dead
            )
        else:  # pragma: no cover - executor reaped the process already
            workers = "worker pid unknown"
        batches = (
            ", ".join(f"batch id={b}" for b in batch_ids)
            if batch_ids
            else "batch id unknown"
        )
        return f"{workers}; in flight: {batches}"

    # ------------------------------------------------------------------
    # Telemetry (staged per batch, folded at quiesce time)
    # ------------------------------------------------------------------
    def note_result(
        self, result: ShardResult, batch_id: Optional[int] = None
    ) -> None:
        """Stage one shard's telemetry for the next fold."""
        if result.pid == 0:
            return
        with self._lock:
            self._staged.append((result, batch_id))

    def note_results(
        self, results: List[ShardResult], batch_id: Optional[int] = None
    ) -> None:
        """Stage a whole batch's telemetry for the next fold."""
        for result in results:
            if isinstance(result, ShardResult):
                self.note_result(result, batch_id)

    def fold_telemetry(self) -> int:
        """Fold all staged telemetry into the worker metric families.

        Runs at quiesce time (and whenever the device's statistics are
        observed), never per batch -- the accounting the shared block
        made zero-copy stays off the dispatch hot path.  Returns the
        number of shard records folded.
        """
        with self._lock:
            staged, self._staged = self._staged, []
        if self._m_batches is None:
            return len(staged)
        for result, batch_id in staged:
            pid = str(result.pid)
            self._m_batches.labels(pid=pid).inc()
            self._m_busy.labels(pid=pid).inc(result.busy_ns)
            self._m_rss.labels(pid=pid).set(result.rss_bytes)
            self._m_beat.labels(pid=pid).set(result.heartbeat_ts)
            if batch_id is not None:
                self._m_last.labels(pid=pid).set(batch_id)
        return len(staged)

    def drop_staged_telemetry(self) -> None:
        """Discard staged telemetry (reset-epoch semantics).

        ``reset_stats`` zeroes the registry; telemetry staged before the
        reset belongs to the zeroed epoch, so folding it afterwards
        would leak pre-reset counts into the fresh one.
        """
        with self._lock:
            self._staged = []

    def shutdown(self) -> None:
        """Stop the workers (idempotent; tolerates a broken pool)."""
        self._executor.shutdown(wait=True, cancel_futures=True)
