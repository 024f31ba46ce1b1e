"""One-shot reproduction report: every experiment, one markdown file.

``python -m repro report [--fast] [--output FILE]`` regenerates all of
the paper's evaluation tables/figures at full (or reduced, ``--fast``)
scale and writes a self-contained markdown report with the
paper-vs-measured comparison -- the programmatic counterpart of
EXPERIMENTS.md.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List

import numpy as np


@dataclass
class ReportConfig:
    """Scale knobs for the report run."""

    fast: bool = False

    @property
    def mc_trials(self) -> int:
        return 20_000 if self.fast else 100_000

    @property
    def fig10_users(self) -> tuple:
        return (2_000_000,) if self.fast else (8_000_000, 16_000_000)

    @property
    def fig11_rows(self) -> tuple:
        return (500_000,) if self.fast else (1_000_000, 8_000_000)

    @property
    def fig12_elements(self) -> tuple:
        return (16, 256) if self.fast else (4, 16, 64, 256, 1024)


def _section_table2(cfg: ReportConfig) -> List[str]:
    from repro.circuit import (
        format_table2,
        max_tolerable_variation,
        table2_experiment,
    )

    lines = ["## Table 2 — TRA reliability", "```"]
    lines.append(format_table2(table2_experiment(trials=cfg.mc_trials)))
    lines.append(
        f"adversarial corner tolerance: "
        f"+/-{max_tolerable_variation() * 100:.2f}% (paper: ~6%)"
    )
    lines.append("```")
    return lines


def _section_table3(cfg: ReportConfig) -> List[str]:
    from repro.energy import format_table3, table3_experiment

    return ["## Table 3 — energy", "```", format_table3(table3_experiment()), "```"]


def _section_fig9(cfg: ReportConfig) -> List[str]:
    from repro.perf import figure9_experiment, format_figure9

    return [
        "## Figure 9 — throughput",
        "```",
        format_figure9(figure9_experiment()),
        "```",
    ]


def _section_fig10(cfg: ReportConfig) -> List[str]:
    from repro.apps import bitmap_index as bi
    from repro.sim import AmbitContext, CpuContext

    lines = [
        "## Figure 10 — bitmap indices",
        "",
        "| users | weeks | baseline ms | ambit ms | speedup |",
        "|---|---|---|---|---|",
    ]
    for users in cfg.fig10_users:
        workload = bi.generate_workload(users, 4, seed=10)
        for weeks in (2, 3, 4):
            base = bi.run_query(CpuContext(), workload, weeks)
            accel = bi.run_query(AmbitContext(), workload, weeks)
            lines.append(
                f"| {users:,} | {weeks} | {base.elapsed_ns / 1e6:.2f} | "
                f"{accel.elapsed_ns / 1e6:.2f} | "
                f"{base.elapsed_ns / accel.elapsed_ns:.1f}x |"
            )
    lines.append("")
    lines.append("Paper: 5.4x-6.6x, average ~6x.")
    return lines


def _section_fig11(cfg: ReportConfig) -> List[str]:
    from repro.apps.bitweaving import (
        BitWeavingColumn,
        scan_range_ambit,
        scan_range_baseline,
    )
    from repro.sim import AmbitContext, CpuContext
    from repro.workloads import column_values

    rng = np.random.default_rng(20)
    lines = [
        "## Figure 11 — BitWeaving",
        "",
        "| rows | bits | speedup |",
        "|---|---|---|",
    ]
    for rows in cfg.fig11_rows:
        for bits in (4, 16, 32):
            values = column_values(rows, bits, rng)
            column = BitWeavingColumn.encode(values, bits)
            c1, c2 = (1 << bits) // 4, (3 << bits) // 4
            base_ctx, ambit_ctx = CpuContext(), AmbitContext()
            scan_range_baseline(base_ctx, column, c1, c2)
            scan_range_ambit(ambit_ctx, column, c1, c2)
            lines.append(
                f"| {rows:,} | {bits} | "
                f"{base_ctx.elapsed_ns / ambit_ctx.elapsed_ns:.1f}x |"
            )
    lines.append("")
    lines.append("Paper: 1.8x-11.8x, average 7x, growing with bits/value.")
    return lines


def _section_fig12(cfg: ReportConfig) -> List[str]:
    from repro.apps.sets import AmbitSetOps, BitsetSetOps, RBTreeSetOps
    from repro.sim.cpu import CpuModel
    from repro.workloads import random_sets

    domain, m = 512 * 1024, 15
    cpu = CpuModel()
    impls = {
        "rbtree": RBTreeSetOps(cpu),
        "bitset": BitsetSetOps(domain, cpu),
        "ambit": AmbitSetOps(domain, cpu),
    }
    lines = [
        "## Figure 12 — set operations (normalised to RB-tree)",
        "",
        "| e | op | bitset | ambit |",
        "|---|---|---|---|",
    ]
    for e in cfg.fig12_elements:
        sets = random_sets(m, e, domain, np.random.default_rng(e))
        for op in ("union", "intersection", "difference"):
            times = {
                name: getattr(impl, op)(sets).elapsed_ns
                for name, impl in impls.items()
            }
            rb = times["rbtree"]
            lines.append(
                f"| {e} | {op} | {times['bitset'] / rb:.2f} | "
                f"{times['ambit'] / rb:.2f} |"
            )
    lines.append("")
    lines.append(
        "Paper: Ambit ~3x better than Bitset; RB-trees win only for "
        "very small sets."
    )
    return lines


def _section_profile(cfg: ReportConfig) -> List[str]:
    from repro.perf.profiling import run_profile_workload

    report = run_profile_workload("all", repeats=2 if cfg.fast else 4)
    return [
        "## Command-stream profile — all seven bulk ops",
        "",
        "Per-operation command counts, accounted busy time and energy,",
        "from the device's accounting record over a bit-exact run",
        "(regenerate interactively with `python -m repro profile`).",
        "",
        "```",
        report.format_table(),
        "```",
    ]


def generate_report(cfg: ReportConfig) -> str:
    """Run every experiment and return the markdown report."""
    started = time.time()
    sections = [
        "# Ambit reproduction report",
        "",
        f"Scale: {'fast (reduced sizes)' if cfg.fast else 'full (paper sizes)'}.",
        "",
    ]
    for builder in (
        _section_table2,
        _section_table3,
        _section_fig9,
        _section_fig10,
        _section_fig11,
        _section_fig12,
        _section_profile,
    ):
        sections.extend(builder(cfg))
        sections.append("")
    sections.append(f"_Generated in {time.time() - started:.1f} s._")
    return "\n".join(sections)
