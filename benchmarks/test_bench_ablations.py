"""Ablations of the design choices DESIGN.md calls out.

* split row decoder (Section 5.3): AAP 49 ns vs 80 ns -> per-op impact;
* copy mechanism (Section 3.4): RowClone-FPM vs PSM vs DDR-interface;
* dead-store elimination of intermediate copies (Section 5.2);
* B-group sizing (Section 5.1): paper xor vs minimal-B-group xor;
* TMR ECC overhead (Section 5.4.5).
"""

import numpy as np
import pytest

from repro.core.device import AmbitDevice
from repro.core.driver import AmbitDriver
from repro.core.ecc import TmrMemory
from repro.core.microprograms import (
    BulkOp,
    compile_op,
    compile_reduction,
    compile_xor_minimal,
)
from repro.core.primitives import sequence_latency_ns
from repro.dram.chip import RowLocation
from repro.dram.geometry import small_test_geometry
from repro.dram.rowclone import fpm_latency_ns, psm_latency_ns
from repro.dram.timing import ddr3_1600
from repro.energy import trace_energy_nj
from repro.perf import FIGURE9_OPS

GEO = small_test_geometry(rows=32, row_bytes=64, banks=2, subarrays_per_bank=2)


def test_bench_ablation_split_decoder(benchmark, save_table):
    """Per-operation latency with and without the split row decoder."""
    timing = ddr3_1600()
    from repro.core.addressing import AmbitAddressMap
    from repro.dram.geometry import SubarrayGeometry

    amap = AmbitAddressMap(SubarrayGeometry(rows=1024, row_bytes=8192))

    def sweep():
        rows = {}
        for op in FIGURE9_OPS:
            prog = compile_op(amap, op, 2, 0, None if op.arity == 1 else 1)
            fast = sequence_latency_ns(prog.primitives, timing, amap, True)
            slow = sequence_latency_ns(prog.primitives, timing, amap, False)
            rows[op] = (fast, slow)
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = [
        "Ablation: split row decoder (Section 5.3), DDR3-1600",
        f"{'op':>6} {'split ns':>9} {'naive ns':>9} {'saving':>7}",
    ]
    for op, (fast, slow) in rows.items():
        lines.append(
            f"{op.value:>6} {fast:>9.0f} {slow:>9.0f} {slow / fast:>6.2f}X"
        )
    save_table("ablation_split_decoder", "\n".join(lines))
    for op, (fast, slow) in rows.items():
        assert fast < slow
    # A pure-AAP op improves by the full 80/49 ratio.
    fast, slow = rows[BulkOp.AND]
    assert slow / fast == pytest.approx(80.0 / 49.0)


def test_bench_ablation_copy_mechanism(benchmark, save_table):
    """FPM vs PSM vs DDR-interface copy latency for one 8 KB row."""
    timing = ddr3_1600()

    def compute():
        fpm = fpm_latency_ns(timing, split_decoder=True)
        fpm_naive = fpm_latency_ns(timing, split_decoder=False)
        psm = psm_latency_ns(timing, 8192)
        ddr = timing.activate_read_row_latency(8192) + timing.activate_read_row_latency(8192)
        return fpm, fpm_naive, psm, ddr

    fpm, fpm_naive, psm, ddr = benchmark.pedantic(compute, rounds=1, iterations=1)
    save_table(
        "ablation_copy_mechanism",
        "Ablation: 8 KB row copy latency (Section 3.4), DDR3-1600\n"
        f"RowClone-FPM (split decoder) : {fpm:8.0f} ns\n"
        f"RowClone-FPM (naive)         : {fpm_naive:8.0f} ns  (paper: ~80 ns)\n"
        f"RowClone-PSM (inter-bank)    : {psm:8.0f} ns\n"
        f"DDR interface (read+write)   : {ddr:8.0f} ns",
    )
    assert fpm < fpm_naive < psm < ddr


def test_bench_ablation_dead_store_elimination(benchmark, save_table):
    """Section 5.2: compiling an AND-reduction with the accumulator kept
    in the designated rows vs naive per-op copies."""
    device = AmbitDevice(geometry=GEO)
    rng = np.random.default_rng(7)
    words = GEO.subarray.words_per_row
    vectors = [
        rng.integers(0, 2**63, size=words, dtype=np.uint64) for _ in range(8)
    ]
    expected = vectors[0]
    for v in vectors[1:]:
        expected = expected & v

    def run():
        results = {}
        for optimize in (True, False):
            device.reset_stats()
            with device.chip.trace.capture() as issued:
                for i, v in enumerate(vectors):
                    device.write_row(RowLocation(0, 0, i), v)
                prog = compile_reduction(
                    device.amap, BulkOp.AND, tuple(range(8)), 9,
                    optimize=optimize,
                )
                device.controller.run_program(prog, 0, 0)
                assert np.array_equal(
                    device.read_row(RowLocation(0, 0, 9)), expected
                )
            results[optimize] = (
                device.busy_ns,
                trace_energy_nj(issued, device.row_bytes),
                len(prog.primitives),
            )
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    opt, naive = results[True], results[False]
    save_table(
        "ablation_dead_store",
        "Ablation: dead-store elimination on an 8-way AND reduction\n"
        f"{'':>12} {'latency ns':>11} {'energy nJ':>10} {'primitives':>11}\n"
        f"{'optimised':>12} {opt[0]:>11.0f} {opt[1]:>10.2f} {opt[2]:>11}\n"
        f"{'naive':>12} {naive[0]:>11.0f} {naive[1]:>10.2f} {naive[2]:>11}\n"
        f"saving: {naive[0] / opt[0]:.2f}X latency, "
        f"{naive[1] / opt[1]:.2f}X energy",
    )
    assert opt[0] < naive[0] and opt[1] < naive[1]


def test_bench_ablation_bgroup_sizing(benchmark, save_table):
    """Section 5.1: the paper's 4+2-row B-group vs a minimal B-group."""
    device = AmbitDevice(geometry=GEO)
    rng = np.random.default_rng(8)
    words = GEO.subarray.words_per_row
    a = rng.integers(0, 2**63, size=words, dtype=np.uint64)
    b = rng.integers(0, 2**63, size=words, dtype=np.uint64)

    def run():
        # Paper xor.
        device.reset_stats()
        with device.chip.trace.capture() as issued:
            device.write_row(RowLocation(0, 0, 0), a)
            device.write_row(RowLocation(0, 0, 1), b)
            device.bbop_row(BulkOp.XOR, RowLocation(0, 0, 2),
                            RowLocation(0, 0, 0), RowLocation(0, 0, 1))
            assert np.array_equal(
                device.read_row(RowLocation(0, 0, 2)), a ^ b
            )
        rich = (device.busy_ns, trace_energy_nj(issued, device.row_bytes))
        # Minimal B-group xor (composed from not/and/or).
        device.reset_stats()
        with device.chip.trace.capture() as issued:
            device.write_row(RowLocation(0, 0, 0), a)
            device.write_row(RowLocation(0, 0, 1), b)
            for prog in compile_xor_minimal(device.amap, 0, 1, 3):
                device.controller.run_program(prog, 0, 0)
            assert np.array_equal(
                device.read_row(RowLocation(0, 0, 3)), a ^ b
            )
        minimal = (device.busy_ns,
                   trace_energy_nj(issued, device.row_bytes))
        return rich, minimal

    rich, minimal = benchmark.pedantic(run, rounds=1, iterations=1)
    save_table(
        "ablation_bgroup",
        "Ablation: xor with the paper's B-group vs a minimal B-group\n"
        f"{'':>16} {'latency ns':>11} {'energy nJ':>10}\n"
        f"{'paper B-group':>16} {rich[0]:>11.0f} {rich[1]:>10.2f}\n"
        f"{'minimal B-group':>16} {minimal[0]:>11.0f} {minimal[1]:>10.2f}\n"
        f"the extra designated/DCC rows buy "
        f"{minimal[0] / rich[0]:.2f}X latency, "
        f"{minimal[1] / rich[1]:.2f}X energy on xor",
    )
    assert rich[0] < minimal[0] and rich[1] < minimal[1]


def test_bench_ablation_tmr_ecc(benchmark, save_table):
    """Section 5.4.5: TMR triples operation cost (and storage)."""
    device = AmbitDevice(geometry=GEO)
    driver = AmbitDriver(device)
    tmr = TmrMemory(device, driver)
    rng = np.random.default_rng(9)
    words = GEO.subarray.words_per_row
    a_img = rng.integers(0, 2**63, size=words, dtype=np.uint64)
    b_img = rng.integers(0, 2**63, size=words, dtype=np.uint64)

    def run():
        # Unprotected op.
        device.reset_stats()
        device.write_row(RowLocation(1, 0, 0), a_img)
        device.write_row(RowLocation(1, 0, 1), b_img)
        device.bbop_row(BulkOp.AND, RowLocation(1, 0, 2), RowLocation(1, 0, 0),
                        RowLocation(1, 0, 1))
        plain_ns = device.busy_ns
        # TMR-protected op.
        a = tmr.allocate_row()
        b = tmr.allocate_row(like=a)
        dst = tmr.allocate_row(like=a)
        tmr.write(a, a_img)
        tmr.write(b, b_img)
        device.reset_stats()
        tmr.bbop(BulkOp.AND, dst, a, b)
        protected_ns = device.busy_ns
        assert np.array_equal(tmr.read(dst).data, a_img & b_img)
        return plain_ns, protected_ns

    plain_ns, protected_ns = benchmark.pedantic(run, rounds=1, iterations=1)
    save_table(
        "ablation_tmr_ecc",
        "Ablation: TMR homomorphic ECC overhead (Section 5.4.5)\n"
        f"unprotected AND : {plain_ns:8.0f} ns\n"
        f"TMR AND         : {protected_ns:8.0f} ns "
        f"({protected_ns / plain_ns:.1f}X; storage overhead 3X)",
    )
    assert protected_ns == pytest.approx(3 * plain_ns, rel=1e-6)
