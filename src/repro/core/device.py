"""The assembled Ambit device: chip + split decoder + controller.

This is the main entry point of the library's hardware model.  An
:class:`AmbitDevice` is a DRAM device whose subarrays carry the B-/C-
group rows and the split row decoder, fronted by an Ambit-aware
controller.  On top of it sit the driver (:mod:`repro.core.driver`) and
the application-facing :class:`~repro.apps.bitvector.BitVector`.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro.core.addressing import AmbitAddressMap
from repro.core.controller import AmbitController
from repro.core.microprograms import StepProgram
from repro.dram.chip import DramChip, RowLocation
from repro.dram.commands import canonical_tally
from repro.dram.geometry import DramGeometry
from repro.dram.rowclone import psm_latency_ns, rowclone_psm
from repro.dram.timing import TimingParameters, ddr3_1600
from repro.errors import AddressError


class AmbitDevice:
    """A complete Ambit DRAM device.

    Parameters
    ----------
    geometry:
        Device shape; defaults to the paper's configuration (8 banks,
        1024-row subarrays, 8 KB rows).
    timing:
        Speed grade for latency accounting; defaults to DDR3-1600, the
        paper's reference.
    split_decoder:
        Disable to model the naive 80 ns AAP (Section 5.3 ablation).
    charge_model_factory:
        Optional nullary factory of analog TRA models, one per subarray,
        to run the device with process variation (Section 6).

    :attr:`metrics` is the device's own
    :class:`~repro.obs.metrics.MetricsRegistry`.  Its op, latency,
    busy-time and plan-cache families are folded from the statistics
    and the plan cache when read (:meth:`_collect_metrics`); no
    execution path updates them.
    """

    def __init__(
        self,
        geometry: Optional[DramGeometry] = None,
        timing: Optional[TimingParameters] = None,
        split_decoder: bool = True,
        charge_model_factory: Optional[Callable[[], object]] = None,
    ):
        from repro.obs.metrics import MetricsRegistry

        self.geometry = geometry if geometry is not None else DramGeometry()
        self.timing = timing if timing is not None else ddr3_1600()
        self.amap = AmbitAddressMap(self.geometry.subarray)
        self.metrics = MetricsRegistry()
        self.chip = DramChip(
            self.geometry,
            decoder_factory=lambda: self.amap.build_decoder(),
            charge_model_factory=charge_model_factory,
        )
        self.controller = AmbitController(
            self.chip, self.timing, split_decoder=split_decoder
        )
        self._engine = None
        self.metrics.register_collector(self._collect_metrics)
        self._initialize_control_rows()

    # ------------------------------------------------------------------
    # Manufacturer initialisation
    # ------------------------------------------------------------------
    def _initialize_control_rows(self) -> None:
        """Pre-set C0 to zeros and C1 to ones in every subarray.

        Section 3.4: "we reserve two control rows in each subarray, C0
        and C1.  C0 is initialized to all zeros and C1 is initialized to
        all ones."
        """
        words = self.geometry.subarray.words_per_row
        zeros = np.zeros(words, dtype=np.uint64)
        ones = np.full(words, np.uint64(0xFFFFFFFFFFFFFFFF))
        for bank in self.chip.banks:
            for sub in bank.subarrays:
                sub.poke(self.amap.row_c0, zeros)
                sub.poke(self.amap.row_c1, ones)

    # ------------------------------------------------------------------
    # Row-level operations
    # ------------------------------------------------------------------
    def bbop_row(
        self,
        op: StepProgram,
        dst: RowLocation,
        *srcs: Optional[RowLocation],
        temps: Sequence[RowLocation] = (),
    ) -> None:
        """Execute one bulk bitwise operation on row-sized operands.

        ``op`` is a :class:`BulkOp` or a compiled op; ``srcs`` bind its
        inputs in order (``None`` entries are dropped) and ``temps`` are
        the scratch rows a compiled op's steps clobber.  All rows must
        live in the same subarray (the driver's job, Section 5.4.2);
        cross-subarray operands need explicit staging via
        :meth:`psm_copy` first.
        """
        srcs = [s for s in srcs if s is not None]
        bank, sub = dst.bank, dst.subarray
        for loc in srcs + list(temps):
            if (loc.bank, loc.subarray) != (bank, sub):
                raise AddressError(
                    f"bbop operands must share a subarray: {loc} vs "
                    f"bank {bank} subarray {sub} "
                    f"(stage cross-subarray operands with psm_copy)"
                )
        self.controller.bbop(
            op,
            bank,
            sub,
            dst.address,
            *[loc.address for loc in srcs],
            temps=[loc.address for loc in temps],
        )

    def run_rows(
        self,
        op: StepProgram,
        dst: Sequence[RowLocation],
        *srcs: Optional[Sequence[RowLocation]],
        temps: Sequence[Sequence[RowLocation]] = (),
    ):
        """Execute a row batch through :attr:`engine` (same contract as
        :meth:`repro.engine.batch.BatchEngine.run_rows`)."""
        return self.engine.run_rows(op, dst, *srcs, temps=temps)

    def run_groups(self, op: StepProgram, groups):
        """Execute groups planned by ``engine.plan_groups`` (see
        :meth:`repro.engine.batch.BatchEngine.run_groups`)."""
        return self.engine.run_groups(op, groups)

    @property
    def engine(self):
        """The device's :class:`~repro.engine.batch.BatchEngine`.

        Built lazily; use it to execute whole row batches with plan
        caching, fused kernels, and bank-interleaved issue::

            report = device.engine.run_rows(BulkOp.AND, dsts, srcs1, srcs2)
            print(report.parallelism.format())
        """
        if self._engine is None:
            from repro.engine.batch import BatchEngine

            self._engine = BatchEngine(self)
        return self._engine

    def psm_copy(self, src: RowLocation, dst: RowLocation) -> None:
        """Copy a row into another subarray, with latency accounting.

        Between banks this is RowClone-PSM.  Within a bank the row is
        copied through the backdoor at the same latency, an internal-bus
        copy that LISA would accelerate (the paper leaves it as future
        work, Section 3.4 footnote).  Either way the copy is credited to
        the accounting record as a ``psm_copy`` execution with the
        commands the chip executed, and each bank it occupies is charged
        once.  Both rows resolve through the runtime repair map, as the
        host's reads and writes do.
        """
        if (src.bank, src.subarray) == (dst.bank, dst.subarray):
            raise AddressError(
                f"psm_copy copies into another subarray; {src} and {dst} "
                f"share one (use RowClone-FPM)"
            )
        tracer = self.chip.tracer
        trace = self.chip.trace
        mark = dict(trace.tally)
        start_ns = self.chip.clock_ns
        if tracer is not None:
            tracer.begin_op("psm_copy", dst.bank, dst.subarray, start_ns)
        if src.bank != dst.bank:
            rowclone_psm(self.chip, self._repaired(src), self._repaired(dst))
        else:
            self.write_row(dst, self.read_row(src))
        latency = psm_latency_ns(self.timing, self.geometry.row_bytes)
        trace.credit(self.controller.plan_cache.totals(
            None, "psm_copy", 0, 0, latency,
            canonical_tally(trace.executed_since(mark)),
        ))
        stats = self.controller.stats
        stats.busy_ns += latency
        for bank in dict.fromkeys((src.bank, dst.bank)):
            stats.bank_busy_ns[bank] += latency
        self.chip.clock_ns += latency
        if tracer is not None:
            tracer.record_primitive(
                "PSM_COPY", dst.bank, dst.subarray, start_ns, latency,
                src_bank=src.bank, src_subarray=src.subarray,
            )
            tracer.end_op(self.chip.clock_ns)

    # ------------------------------------------------------------------
    # Host (functional) access
    # ------------------------------------------------------------------
    def _repaired(self, loc: RowLocation) -> RowLocation:
        """Resolve a location through the runtime spare-row map, so the
        host's functional view follows the same remapping the command
        path applies (identity while no repairs are assigned)."""
        repair = self.controller.repair
        if not repair:
            return loc
        return RowLocation(
            loc.bank,
            loc.subarray,
            repair.translate(loc.bank, loc.subarray, loc.address),
        )

    def write_row(self, loc: RowLocation, data: np.ndarray) -> None:
        """Functionally store a packed uint64 row image at ``loc``."""
        self.chip.poke_row(self._repaired(loc), data)

    def read_row(self, loc: RowLocation) -> np.ndarray:
        """Functionally read the packed uint64 row image at ``loc``."""
        return self.chip.peek_row(self._repaired(loc))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def row_bytes(self) -> int:
        return self.geometry.row_bytes

    @property
    def row_bits(self) -> int:
        return self.geometry.subarray.row_bits

    @property
    def elapsed_ns(self) -> float:
        """Bank-parallel completion time of all work so far."""
        return self.controller.stats.makespan_ns()

    @property
    def busy_ns(self) -> float:
        """Serial (single-bank-equivalent) time of all work so far."""
        return self.controller.stats.busy_ns

    def reset_stats(self) -> None:
        """Clear controller statistics, the command trace and the metrics.

        The metrics registry resets with the statistics: counters and
        per-op histograms restart from zero in the same call, and the
        folded families read the restarted statistics, so metrics and
        counters can never describe different epochs.
        """
        self.controller.reset_stats()
        self.metrics.reset()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _collect_metrics(self) -> None:
        """Fill the device's folded metric families (the registry's
        collector: it runs once per scrape, snapshot or ``collect()``).

        Ops and their latencies are the controller statistics' record
        delta, one observation of ``totals.ns`` per row (RowClone-PSM
        copies excluded, as in ``ControllerStats.ops``).  Each value is
        assigned, never added, so concurrent scrapes cannot count twice.
        """
        ops: Dict[tuple, int] = {}
        latency: Dict[tuple, list] = {}
        for totals, n in self.controller.stats.runs():
            if totals.op is not None:
                key = (totals.name,)
                ops[key] = ops.get(key, 0) + n
                latency.setdefault(key, []).append((totals.ns, n))
        cache = self.controller.plan_cache
        metrics = self.metrics
        metrics.counter(
            "ambit_ops_total", "Completed bulk bitwise operations", ("op",)
        ).assign(ops)
        metrics.histogram(
            "ambit_op_latency_ns",
            "Accounted per-row latency of bulk operations (ns)", ("op",),
        ).assign(latency)
        metrics.counter(
            "ambit_busy_ns_total",
            "Serial accounted busy time across all banks (ns)",
        ).assign({(): self.busy_ns})
        metrics.counter(
            "ambit_plan_cache_hits_total", "Plan-cache hits, per row"
        ).assign({(): cache.hits})
        metrics.counter(
            "ambit_plan_cache_misses_total",
            "Plan-cache misses (template compilations)",
        ).assign({(): cache.misses})
        metrics.gauge(
            "ambit_plan_cache_plans", "Plan templates held (one per op shape)"
        ).set(len(cache))

    @property
    def tracer(self):
        """The attached :class:`repro.obs.tracer.Tracer` (or ``None``)."""
        return self.chip.tracer

    def attach_tracer(self, tracer=None):
        """Attach a tracer to the command path; returns it.

        With no argument, builds a :class:`repro.obs.tracer.Tracer`
        configured with this device's timing and row size (but no sinks
        -- add a ring buffer / Chrome sink as needed).
        """
        if tracer is None:
            from repro.obs.tracer import Tracer

            tracer = Tracer(timing=self.timing, row_bytes=self.row_bytes)
        self.chip.tracer = tracer
        return tracer

    def detach_tracer(self):
        """Detach and return the current tracer (without closing it)."""
        tracer, self.chip.tracer = self.chip.tracer, None
        return tracer

    def profile(self):
        """Profile a region of work: counters + per-bulk-op summaries.

        Usage::

            with device.profile() as prof:
                device.bbop_row(BulkOp.AND, dk, di, dj)
            print(prof.format_table())

        The report is the accounting record's delta over the region; no
        tracer is attached.  See :func:`repro.obs.profiler.profile`.
        """
        from repro.obs.profiler import profile as _profile

        return _profile(self)
