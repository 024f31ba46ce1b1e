"""Auto-tuned dispatch: pick serial / fused / sharded per request.

The three execution tiers of a bulk batch trade fixed overhead against
marginal row cost very differently:

* **serial** -- the per-row command walk.  Every row pays full Python
  dispatch, so it wins only the empty batch.
* **fused** -- the in-process batch engine: one planning pass, then one
  vectorised numpy kernel per (bank, subarray) group.  The default for
  anything that fits one process.
* **sharded** -- fan the fused kernels across worker processes.  Adds a
  fixed dispatch cost (submit + collect through the pool) and divides
  the numpy byte work among the workers that can run at once.  Wins
  only when the divided byte work exceeds what the dispatch overhead
  eats -- the Buddy-RAM lesson: amortize one-time setup over *large*
  batches.

:class:`AutoTuner` encodes those shapes as an explicit per-tier cost
model (:class:`CostModel`) and picks the cheapest tier per request.
The decision is a pure function of ``(rows, row_bytes, shards, jobs)``
and the model constants, which is what makes it golden-testable: the
decision table in ``tests/parallel/test_tuner.py`` pins the measured
winners.

Constants come from one of two places: the shipped defaults (measured
with :meth:`AutoTuner.calibrate` on the recording host) or a
calibration of the caller's own device, which times probe batches on
every tier (:func:`run_probes`) and fits the model to them
(:meth:`CostModel.fit`).  Correctness never depends on the model --
every tier is bit-exact by construction -- so a mis-tuned model costs
wall-clock only.
"""

from __future__ import annotations

import enum
import functools
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigError


class DispatchTier(enum.Enum):
    """How one bulk batch is executed."""

    SERIAL = "serial"
    FUSED = "fused"
    SHARDED = "sharded"


#: Tie-break preference: simpler tiers win equal estimates.
_TIER_ORDER = (DispatchTier.SERIAL, DispatchTier.FUSED, DispatchTier.SHARDED)


@dataclass(frozen=True)
class Probes:
    """Best-of wall-clock seconds of the calibration probes.

    One device shape: ``row_bytes`` per row, sharded probes on
    ``shards`` workers, ``cores`` schedulable cores.  Each tier, and
    ``kernel`` -- the fused kernels alone: gathers, op, scatter; no
    planning or accounting -- maps to its times at the two batch sizes
    in ``sizes`` (rows).
    """

    row_bytes: int
    shards: int
    cores: int
    sizes: Tuple[int, int]
    serial: Tuple[float, float]
    fused: Tuple[float, float]
    sharded: Tuple[float, float]
    kernel: Tuple[float, float]


@dataclass(frozen=True)
class CostModel:
    """Per-tier cost constants, in seconds, and the host's core count.

    With ``bytes = rows * row_bytes`` and ``workers = min(shards, jobs,
    cores)``, each tier costs fixed + per-row + per-byte time:

    * serial: ``batch_s + rows * serial_row_s + bytes * byte_s``;
    * fused: ``batch_s + rows * fused_row_s + bytes * byte_s``;
    * sharded: ``batch_s + sharded_batch_s + rows * fused_row_s
      + bytes * shard_byte_s / workers``.

    The estimates stay this simple because the decision only needs the
    crossover points right, not absolute times.  The defaults are
    :meth:`AutoTuner.calibrate` on the recording host (2 cores; 4 banks
    of 8 KiB rows, 2 workers); see ``docs/SCALING.md`` for the probes
    and how to re-fit them.
    """

    #: Fixed cost of an engine batch (planning pass, schedule, report),
    #: paid on every tier.
    batch_s: float = 565e-6
    #: Per-row cost of the per-row command walk (Python dispatch heavy).
    serial_row_s: float = 112e-6
    #: Per-row planning/accounting cost of a fused batch; the sharded
    #: tier's parent pays it too.
    fused_row_s: float = 3.7e-6
    #: Per-byte cost of the fused numpy kernels.  A row operation
    #: traverses each operand row several times (gathers, the op, the
    #: scatter), so this is far above a single memcpy pass.
    byte_s: float = 1.09e-9
    #: Fixed cost a sharded batch adds: the pool round trip.
    sharded_batch_s: float = 1.8e-3
    #: Per-byte cost of a sharded batch's row work before it is divided
    #: among its workers.  Fitted from the sharded probes, so it also
    #: carries any per-row cost the sharded tier adds over the fused
    #: one.  ``byte_s`` means the workers scale perfectly; ``2 *
    #: byte_s`` at two workers means they ran no faster than one.
    shard_byte_s: float = 3.85e-9
    #: Schedulable cores: no more workers than this run at once.
    cores: int = 2

    def describe(self) -> Dict[str, float]:
        """The constants as a plain dict (for bench payloads / docs)."""
        return asdict(self)

    @classmethod
    def fit(cls, probes: Probes) -> "CostModel":
        """The model whose estimates reproduce ``probes``.

        Each tier's two sizes give a line whose slope is its per-row
        cost at ``probes.row_bytes``.  The fused line's intercept is the
        engine batch's fixed cost; the sharded one's adds the pool round
        trip.  The kernel probe splits a slope into per-row and per-byte
        parts, and what the sharded slope adds to the parent's per-row
        cost is the shard byte work, divided among the probe's workers.
        A fixed or per-row cost the probes cannot resolve (noise put it
        at or below zero) is reported as the clock's resolution, and
        sharding never beats perfect scaling (``shard_byte_s >=
        byte_s``).
        """
        (small, large), width = probes.sizes, probes.row_bytes
        floor = time.get_clock_info("perf_counter").resolution

        def line(times: Tuple[float, float]) -> Tuple[float, float]:
            slope = (times[1] - times[0]) / (large - small)
            return times[0] - slope * small, slope

        _, kernel_slope = line(probes.kernel)
        byte_s = max(kernel_slope, floor) / width
        _, serial_slope = line(probes.serial)
        fused_fixed, fused_slope = line(probes.fused)
        sharded_fixed, sharded_slope = line(probes.sharded)
        batch_s = max(fused_fixed, floor)
        fused_row_s = max(fused_slope - width * byte_s, floor)
        workers = max(1, min(probes.shards, probes.cores))
        return cls(
            batch_s=batch_s,
            serial_row_s=max(serial_slope - width * byte_s, floor),
            fused_row_s=fused_row_s,
            byte_s=byte_s,
            sharded_batch_s=max(sharded_fixed - batch_s, floor),
            shard_byte_s=max(
                workers * (sharded_slope - fused_row_s) / width, byte_s
            ),
            cores=probes.cores,
        )


#: Constants measured on the recording host.
DEFAULT_COST_MODEL = CostModel()


@dataclass(frozen=True)
class McCostModel:
    """Cost constants of the Monte Carlo fan-out, in seconds.

    The Monte Carlo arm has a different shape from a bulk batch: the
    chunk count is *experiment configuration* (it fixes the RNG
    streams), so the tuner may only pick the worker count, never the
    chunking.  The decision is therefore one-dimensional: is dividing
    the per-trial compute across ``jobs`` processes worth the pool
    spin-up plus per-chunk submit/collect overhead?
    """

    #: Per-trial compute of the vectorised variation deck.
    trial_s: float = 2.4e-7
    #: Per-chunk overhead: child-rng spawn, submit, pickle, collect.
    chunk_s: float = 5e-4
    #: One-time pool creation cost (fork/spawn + imports), paid by
    #: every parallel run because the MC path builds a fresh pool.
    pool_spinup_s: float = 0.35

    def describe(self) -> Dict[str, float]:
        """The constants as a plain dict (for bench payloads / docs)."""
        return {
            "trial_s": self.trial_s,
            "chunk_s": self.chunk_s,
            "pool_spinup_s": self.pool_spinup_s,
        }


#: Reference-host defaults for the Monte Carlo arm.
DEFAULT_MC_COST_MODEL = McCostModel()


@dataclass(frozen=True)
class McDispatchDecision:
    """Worker-count decision for one Monte Carlo run (for surfacing)."""

    trials: int
    chunks: int
    jobs_requested: int
    cores: int
    #: Worker count to actually run with (1 = stay in-process).
    jobs: int
    serial_est_s: float
    parallel_est_s: float
    #: True when fanning out is predicted to beat the in-process run.
    worthwhile: bool
    #: Why the tuner declined to fan out ("" when it did not decline).
    reason: str


def plan_mc_dispatch(
    trials: int,
    chunks: int,
    jobs: int,
    cores: Optional[int] = None,
    model: Optional[McCostModel] = None,
) -> McDispatchDecision:
    """Pick the Monte Carlo worker count from the cost model.

    Chunk count is left untouched -- it is part of the experiment's
    identity (the failure count is a function of ``(chunks, seed)``) --
    so the only free variable is how many processes share the chunks.
    On a single schedulable core, or whenever the predicted parallel
    time (pool spin-up + chunk overhead + divided trial work) exceeds
    the in-process time, the decision is ``jobs=1`` with a stated
    reason; the bench records that reason as an explicit waiver instead
    of publishing a sub-1x "speedup" that is really a dispatch tax.
    """
    model = model if model is not None else DEFAULT_MC_COST_MODEL
    if cores is None:
        from repro.parallel.pmap import default_jobs

        cores = default_jobs()
    effective = max(1, min(jobs, cores, chunks))
    work_s = trials * model.trial_s
    serial_est = work_s
    parallel_est = (
        model.pool_spinup_s + chunks * model.chunk_s + work_s / effective
    )
    worthwhile = effective >= 2 and parallel_est < serial_est
    if worthwhile:
        reason = ""
    elif min(jobs, cores) < 2:
        reason = (
            f"single-core host ({cores} schedulable core(s)); "
            f"fan-out cannot win"
        )
    else:
        reason = (
            f"dispatch-bound: predicted parallel {parallel_est:.3f}s "
            f">= serial {serial_est:.3f}s at {effective} worker(s) "
            f"(pool spin-up + {chunks} chunk submissions dominate "
            f"{trials:,} trials)"
        )
    return McDispatchDecision(
        trials=trials,
        chunks=chunks,
        jobs_requested=jobs,
        cores=cores,
        jobs=effective if worthwhile else 1,
        serial_est_s=serial_est,
        parallel_est_s=parallel_est,
        worthwhile=worthwhile,
        reason=reason,
    )


@dataclass(frozen=True)
class Decision:
    """One auto-dispatch decision with its estimates (for surfacing)."""

    rows: int
    row_bytes: int
    shards: int
    jobs: int
    tier: DispatchTier
    estimates_s: Dict[str, float]


class AutoTuner:
    """Cost-model dispatch tier selection for a sharded device."""

    def __init__(self, model: Optional[CostModel] = None):
        self.model = model if model is not None else DEFAULT_COST_MODEL
        #: Decisions taken, per tier value (mirrors the device's
        #: ``ambit_dispatch_total`` metric, kept here so a bare tuner is
        #: inspectable without a registry).
        self.decisions: Dict[str, int] = {t.value: 0 for t in DispatchTier}
        self.last_decision: Optional[Decision] = None

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    def estimate(
        self,
        tier: DispatchTier,
        rows: int,
        row_bytes: int,
        shards: int,
        jobs: int,
    ) -> float:
        """Predicted wall-clock seconds of one batch on one tier."""
        m = self.model
        row_work = rows * row_bytes
        if tier is DispatchTier.SERIAL:
            return m.batch_s + rows * m.serial_row_s + row_work * m.byte_s
        fused = m.batch_s + rows * m.fused_row_s
        if tier is DispatchTier.FUSED:
            return fused + row_work * m.byte_s
        workers = max(1, min(shards, jobs, m.cores))
        return fused + m.sharded_batch_s + row_work * m.shard_byte_s / workers

    def choose(
        self, rows: int, row_bytes: int, shards: int, jobs: int
    ) -> DispatchTier:
        """The cheapest tier for this request shape.

        ``shards`` is the batch's *eligible* shard count (distinct
        banks, capped by workers); pass 1 when sharding is ineligible
        and the sharded tier prices itself out automatically.
        """
        estimates = {
            tier: self.estimate(tier, rows, row_bytes, shards, jobs)
            for tier in _TIER_ORDER
        }
        if shards < 2 or jobs < 2:
            del estimates[DispatchTier.SHARDED]
        tier = min(estimates, key=lambda t: (estimates[t], _TIER_ORDER.index(t)))
        self.decisions[tier.value] += 1
        self.last_decision = Decision(
            rows=rows,
            row_bytes=row_bytes,
            shards=shards,
            jobs=jobs,
            tier=tier,
            estimates_s={t.value: s for t, s in estimates.items()},
        )
        return tier

    def decision_table(
        self, shapes: Iterable[Tuple[int, int, int, int]]
    ) -> List[Dict[str, object]]:
        """Evaluate ``(rows, row_bytes, shards, jobs)`` shapes.

        Pure: rows of the returned table do not count toward
        :attr:`decisions` -- this is the inspection/golden-test surface.
        """
        saved = dict(self.decisions), self.last_decision
        try:
            table = []
            for rows, row_bytes, shards, jobs in shapes:
                tier = self.choose(rows, row_bytes, shards, jobs)
                table.append(
                    {
                        "rows": rows,
                        "row_bytes": row_bytes,
                        "shards": shards,
                        "jobs": jobs,
                        "tier": tier.value,
                    }
                )
            return table
        finally:
            self.decisions, self.last_decision = saved

    # ------------------------------------------------------------------
    # Calibration
    # ------------------------------------------------------------------
    def calibrate(self, device, rows: int = 32, repeats: int = 3) -> CostModel:
        """Fit and install the model of a live sharded device.

        :func:`run_probes` times the device, :meth:`CostModel.fit`
        solves the constants.  Returns the new model.
        """
        self.model = CostModel.fit(run_probes(device, rows, repeats))
        return self.model


def run_probes(device, rows: int = 32, repeats: int = 3) -> Probes:
    """Time every tier of a sharded device at two batch sizes.

    A probe batch ANDs two rows into a third, in subarray 0 of every
    bank, with distinct rows throughout as in live traffic: ``rows``
    rows, then eight times as many (as far as a third of the subarray
    holds).  Each probe keeps the best of ``repeats`` runs after one
    untimed run, so plan caches, the worker pool and the plan board are
    warm.  The sharded tier is probed whatever the device's ``dispatch``
    mode.  Cells of the probed rows are clobbered (probe before real
    data) and the device's statistics are reset afterwards.
    """
    import numpy as np

    from repro.core.microprograms import BulkOp
    from repro.dram.chip import RowLocation
    from repro.parallel.pmap import default_jobs

    geometry = device.geometry
    banks = geometry.banks
    small = max(1, rows // banks)
    large = min(8 * small, geometry.subarray.data_rows // 3)
    if large <= small:
        raise ConfigError(
            f"calibration needs at least {3 * (small + 1)} data rows per "
            f"subarray; the device has {geometry.subarray.data_rows}"
        )
    engine = device.engine
    subarrays = [device.chip.bank(bank).subarray(0) for bank in range(banks)]
    rng = np.random.default_rng(0)
    words = geometry.subarray.words_per_row
    for subarray in subarrays:
        subarray.poke_batch(
            range(large, 3 * large),
            rng.integers(0, 2**63, size=(2 * large, words), dtype=np.uint64),
        )

    def column(offset: int, per_bank: int) -> List[RowLocation]:
        return [
            RowLocation(bank, 0, offset + i)
            for bank in range(banks)
            for i in range(per_bank)
        ]

    def kernel(per_bank: int) -> None:
        for subarray in subarrays:
            sources = [
                subarray.peek_batch(range(offset, offset + per_bank))
                for offset in (large, 2 * large)
            ]
            result, _ = BulkOp.AND.eval_rows(sources)
            subarray.poke_batch(range(per_bank), result)

    probes: Dict[Tuple[str, int], Callable[[], object]] = {}
    for per_bank in (small, large):
        probes["kernel", per_bank] = functools.partial(kernel, per_bank)
        batch = [column(offset, per_bank) for offset in (0, large, 2 * large)]
        probes["serial", per_bank] = functools.partial(
            engine.run_rows, BulkOp.AND, *batch, fuse=False
        )
        probes["fused", per_bank] = functools.partial(
            engine.run_rows, BulkOp.AND, *batch
        )
        probes["sharded", per_bank] = functools.partial(
            device.run_rows, BulkOp.AND, *batch
        )
    # One untimed run each, then round robin, so every probe sees the
    # same host state (allocator, caches, pool) in every round.
    times: Dict[Tuple[str, int], List[float]] = {key: [] for key in probes}
    mode, device.dispatch = device.dispatch, "sharded"
    try:
        for probe in probes.values():
            probe()
        for _ in range(max(1, repeats)):
            for key, probe in probes.items():
                t0 = time.perf_counter()
                probe()
                times[key].append(time.perf_counter() - t0)
    finally:
        device.dispatch = mode
    device.quiesce()
    device.reset_stats()

    def best(tier: str) -> Tuple[float, float]:
        return min(times[tier, small]), min(times[tier, large])

    return Probes(
        row_bytes=device.row_bytes,
        shards=max(1, min(device.max_workers, banks)),
        cores=default_jobs(),
        sizes=(small * banks, large * banks),
        serial=best("serial"),
        fused=best("fused"),
        sharded=best("sharded"),
        kernel=best("kernel"),
    )
