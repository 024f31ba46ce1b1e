"""The chaos soak: N bulk operations under a deterministic fault plan.

``repro chaos`` runs this harness: a small device (serial or sharded),
a seed-driven random workload over all nine bulk operations, a
:class:`~repro.faults.plan.FaultPlan` injected alongside it, and a
:class:`~repro.faults.recover.FaultTolerantSession` verifying every
destination row against the numpy shadow.  The soak passes only if

* every detected fault was recovered (``ambit_faults_unrecovered_total``
  stayed zero), and
* the final patrol scrub leaves every row bit-exact against the shadow.

With ``recovery=False`` the session only *detects*: any injected fault
that perturbs a result is counted unrecovered and the soak fails --
which is how the acceptance criteria prove the detection path is live
rather than vacuously green.

Everything is derived from ``(seed, ops, fault_rate)``: the same
configuration replays the same workload, the same fault schedule, and
the same recovery decisions, which is what makes the CI chaos-smoke job
a regression test rather than a dice roll.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.microprograms import BulkOp
from repro.dram.chip import RowLocation
from repro.dram.geometry import small_test_geometry
from repro.errors import ConcurrencyError, ConfigError
from repro.faults.injector import FaultInjector
from repro.faults.plan import DEVICE_KINDS, POOL_KINDS, FaultPlan
from repro.faults.recover import FaultTolerantSession, RecoveryPolicy
from repro.log import get_logger

log = get_logger("chaos")

#: The full operation mix the soak draws from.
ALL_OPS: Tuple[BulkOp, ...] = (
    BulkOp.NOT,
    BulkOp.AND,
    BulkOp.OR,
    BulkOp.NAND,
    BulkOp.NOR,
    BulkOp.XOR,
    BulkOp.XNOR,
    BulkOp.COPY,
    BulkOp.MAJ,
)


@dataclass(frozen=True)
class ChaosConfig:
    """Shape of one soak run (the ``repro chaos`` flags)."""

    ops: int = 500
    seed: int = 0
    fault_rate: float = 1e-3
    #: Worker processes; >= 2 runs on a ShardedDevice and adds the
    #: worker crash/stall fault kinds to the plan.
    jobs: int = 1
    banks: int = 2
    rows: int = 48
    row_bytes: int = 64
    recovery: bool = True
    #: Rows of the per-(bank, subarray) working set faults land in.
    work_rows: int = 8
    #: Spare rows donated to each subarray's repair pool.
    spare_rows: int = 8
    stall_timeout_s: float = 0.05
    crash_retries: int = 3

    def validate(self) -> None:
        """Raise :class:`~repro.errors.ConfigError` on impossible shapes."""
        if self.ops <= 0:
            raise ConfigError(f"chaos needs ops > 0; got {self.ops}")
        if self.jobs < 1:
            raise ConfigError(f"chaos needs jobs >= 1; got {self.jobs}")
        if self.banks < 1:
            raise ConfigError(f"chaos needs banks >= 1; got {self.banks}")
        if not 0 < self.fault_rate <= 1:
            raise ConfigError(
                f"fault rate must be in (0, 1]; got {self.fault_rate}"
            )
        if self.work_rows < 4:
            raise ConfigError(
                f"the soak draws 4 distinct rows per op; work_rows must "
                f"be >= 4, got {self.work_rows}"
            )
        geometry = small_test_geometry(
            rows=self.rows, row_bytes=self.row_bytes,
            banks=self.banks, subarrays_per_bank=1,
        )
        needed = self.work_rows + 2 + self.spare_rows
        if geometry.subarray.data_rows < needed:
            raise ConfigError(
                f"geometry exposes {geometry.subarray.data_rows} data "
                f"rows but the soak needs {needed} (work + scratch + "
                f"spares); raise rows or shrink the working set"
            )


@dataclass
class ChaosReport:
    """Outcome of one soak, ready for the CLI and for assertions."""

    config: ChaosConfig
    plan_events: int
    plan_kinds: Dict[str, int]
    applied: int
    skipped: int
    unreached: int
    #: Per-kind totals of the four ``ambit_faults_*`` families.
    injected: Dict[str, float] = field(default_factory=dict)
    detected: Dict[str, float] = field(default_factory=dict)
    recovered: Dict[str, float] = field(default_factory=dict)
    unrecovered: Dict[str, float] = field(default_factory=dict)
    #: Ops whose sharded execution failed outright (retries exhausted).
    failed_ops: int = 0
    #: Shadow keys still mismatching after the final patrol scrub.
    mismatches: List[Tuple[int, int, int]] = field(default_factory=list)
    #: Filtered Prometheus exposition of the fault families.
    scrape: str = ""

    @property
    def unrecovered_total(self) -> float:
        return sum(self.unrecovered.values())

    @property
    def ok(self) -> bool:
        return (
            self.unrecovered_total == 0
            and not self.mismatches
            and self.failed_ops == 0
        )

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1


def _family_totals(registry, name: str) -> Dict[str, float]:
    family = registry.get(name)
    if family is None:
        return {}
    return {
        values[0]: child.value
        for values, child in sorted(family.children.items())
        if child.value
    }


def _build_device(config: ChaosConfig, geometry):
    if config.jobs >= 2:
        from repro.parallel.device import ShardedDevice

        return ShardedDevice(
            geometry=geometry,
            max_workers=config.jobs,
            crash_retries=config.crash_retries,
            stall_timeout_s=config.stall_timeout_s,
        )
    from repro.core.device import AmbitDevice

    return AmbitDevice(geometry=geometry)


def run_chaos(config: Optional[ChaosConfig] = None) -> ChaosReport:
    """Execute one soak; never raises on faults, only on bad config."""
    config = config if config is not None else ChaosConfig()
    config.validate()
    geometry = small_test_geometry(
        rows=config.rows, row_bytes=config.row_bytes,
        banks=config.banks, subarrays_per_bank=1,
    )
    sharded = config.jobs >= 2
    work = list(range(config.work_rows))
    scratch = (config.work_rows, config.work_rows + 1)
    spares = list(
        range(config.work_rows + 2, config.work_rows + 2 + config.spare_rows)
    )
    kinds = DEVICE_KINDS + POOL_KINDS if sharded else DEVICE_KINDS

    plan = FaultPlan.generate(
        ops=config.ops,
        seed=config.seed,
        fault_rate=config.fault_rate,
        rows={(bank, 0): work for bank in range(config.banks)},
        row_bits=geometry.subarray.row_bits,
        kinds=kinds,
    )

    device = _build_device(config, geometry)
    try:
        session = FaultTolerantSession(
            device, RecoveryPolicy(enabled=config.recovery)
        )
        for bank in range(config.banks):
            session.set_scratch(bank, 0, scratch)
            session.add_spares(bank, 0, spares)

        # Deterministic workload stream, decoupled from the plan's rng.
        rng = np.random.default_rng(config.seed + 1)
        words = geometry.subarray.words_per_row
        for bank in range(config.banks):
            for row in work:
                session.write_row(
                    RowLocation(bank, 0, row),
                    rng.integers(0, 2**64, size=words, dtype=np.uint64),
                )

        injector = FaultInjector(device, plan)
        failed_ops = 0
        for i in range(config.ops):
            injector.before_op(i)
            op = ALL_OPS[int(rng.integers(0, len(ALL_OPS)))]
            dst, src1, src2, src3 = [], [], [], []
            for bank in range(config.banks):
                picks = rng.choice(work, size=4, replace=False)
                dst.append(RowLocation(bank, 0, int(picks[0])))
                src1.append(RowLocation(bank, 0, int(picks[1])))
                src2.append(RowLocation(bank, 0, int(picks[2])))
                src3.append(RowLocation(bank, 0, int(picks[3])))
            try:
                session.run_rows(
                    op,
                    dst,
                    src1,
                    src2 if op.arity >= 2 else None,
                    src3 if op.arity >= 3 else None,
                )
            except ConcurrencyError as exc:
                # Crash retries exhausted; the sharded device already
                # counted the unrecovered worker_crash.  The next batch
                # rebuilds the pool, so the soak can keep going.
                failed_ops += 1
                log.warning(
                    "op %d (%s) lost to exhausted crash retries: %s",
                    i, op.value, exc,
                    extra={"ctx_op_index": i, "ctx_op": op.value},
                )

        unreached = len(injector.drain())
        mismatches = session.scrub()
        log.info(
            "soak done: %d ops, %d applied fault(s), %d failed op(s), "
            "%d scrub mismatch(es)",
            config.ops, len(injector.applied), failed_ops, len(mismatches),
        )

        registry = device.metrics
        scrape = "\n".join(
            line
            for line in registry.render_prometheus().splitlines()
            if "ambit_faults_" in line
        )
        return ChaosReport(
            config=config,
            plan_events=len(plan),
            plan_kinds=plan.kinds(),
            applied=len(injector.applied),
            skipped=len(injector.skipped),
            unreached=unreached,
            injected=_family_totals(registry, "ambit_faults_injected_total"),
            detected=_family_totals(registry, "ambit_faults_detected_total"),
            recovered=_family_totals(registry, "ambit_faults_recovered_total"),
            unrecovered=_family_totals(
                registry, "ambit_faults_unrecovered_total"
            ),
            failed_ops=failed_ops,
            mismatches=mismatches,
            scrape=scrape,
        )
    finally:
        device.close()


def format_chaos(report: ChaosReport) -> str:
    """Human-readable soak summary for the CLI."""
    config = report.config
    mode = (
        f"sharded ({config.jobs} jobs)" if config.jobs >= 2 else "serial"
    )
    lines = [
        f"chaos soak: {config.ops} ops, seed {config.seed}, fault rate "
        f"{config.fault_rate:g}, {mode}, recovery "
        f"{'on' if config.recovery else 'off'}",
        f"fault plan: {report.plan_events} event(s) "
        f"({_kinds(report.plan_kinds)}); applied {report.applied}, "
        f"skipped {report.skipped}, unreached {report.unreached}",
        f"injected:    {_kinds(report.injected) or '-'}",
        f"detected:    {_kinds(report.detected) or '-'}",
        f"recovered:   {_kinds(report.recovered) or '-'}",
        f"unrecovered: {_kinds(report.unrecovered) or '-'}",
    ]
    if report.failed_ops:
        lines.append(f"failed ops: {report.failed_ops}")
    if report.mismatches:
        rows = ", ".join(
            f"bank {b} sub {s} row {r}" for b, s, r in report.mismatches[:8]
        )
        more = len(report.mismatches) - 8
        lines.append(
            f"bit mismatches after scrub: {len(report.mismatches)} "
            f"({rows}{f', +{more} more' if more > 0 else ''})"
        )
    else:
        lines.append("final verification: bit-exact against the numpy shadow")
    lines.append("PASS" if report.ok else "FAIL")
    return "\n".join(lines)


def _kinds(counts: Dict[str, float]) -> str:
    return ", ".join(
        f"{kind}={int(count)}" for kind, count in sorted(counts.items())
    )
