"""Compiled-versus-native benchmark: the compiler must not tax silicon.

Two claims are priced here, both model-deterministic (they depend on
the timing model and the seed, never on the host):

* **Plan parity.**  For AND and XOR -- the two operations with both a
  hand-written native microprogram and an obvious compiled spelling --
  the synthesized command stream is executed next to the native one and
  the modelled latencies are compared.  The gate is a ratio ceiling
  (``repro.obs.regress.COMPILE_MAX_RATIO``); the measured outcome is in
  fact *trace identity*: the compiler reaches the exact byte stream of
  the hand-written program, so the ratio is 1.0 by construction.
* **Kernel correctness.**  The bit-serial ``add`` and ``popcount``
  kernels run on a real device against integer numpy oracles; the
  payload records bit-exactness flags plus their modelled device time.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

#: The native/compiled pairs priced for parity.
PARITY_CASES = (
    ("and", "a & b"),
    ("xor", "a ^ b"),
)


def _fresh_device(row_bytes: int):
    from repro.core.device import AmbitDevice
    from repro.dram.geometry import small_test_geometry

    return AmbitDevice(
        geometry=small_test_geometry(
            rows=32, row_bytes=row_bytes, banks=2, subarrays_per_bank=2
        )
    )


def _seed_rows(device, rng, locations) -> None:
    words = device.geometry.subarray.words_per_row
    for loc in locations:
        device.write_row(
            loc, rng.integers(0, 1 << 63, words, dtype=np.uint64)
        )


def _parity_case(op_name: str, expr_text: str, row_bytes: int, seed: int):
    """Execute one op natively and compiled; compare model time + trace."""
    from repro.compile import compile_expr, parse_expr
    from repro.core.microprograms import BulkOp
    from repro.dram.chip import RowLocation
    from repro.obs import CommandLog

    dst = RowLocation(0, 0, 3)
    src1 = RowLocation(0, 0, 0)
    src2 = RowLocation(0, 0, 1)

    native = _fresh_device(row_bytes)
    rng = np.random.default_rng(seed)
    _seed_rows(native, rng, (src1, src2))
    log = CommandLog(native)
    native.bbop_row(BulkOp(op_name), dst, src1, src2)
    native_text = log.text()
    log.detach()
    native_ns = native.elapsed_ns
    native_result = native.read_row(dst).copy()

    cop = compile_expr(parse_expr(expr_text), name=op_name)
    compiled = _fresh_device(row_bytes)
    rng = np.random.default_rng(seed)
    _seed_rows(compiled, rng, (src1, src2))
    temps = [RowLocation(0, 0, 4 + t) for t in range(cop.num_temps)]
    log = CommandLog(compiled)
    compiled.bbop_row(cop, dst, src1, src2, temps=temps)
    compiled_text = log.text()
    log.detach()
    compiled_ns = compiled.elapsed_ns
    compiled_result = compiled.read_row(dst).copy()

    return {
        "native_ns": native_ns,
        "compiled_ns": compiled_ns,
        "ratio": compiled_ns / native_ns,
        "trace_identical": native_text == compiled_text,
        "bit_exact": bool(np.array_equal(native_result, compiled_result)),
        "compiled_temps": cop.num_temps,
    }


def _kernel_section(row_bytes: int, seed: int) -> Dict[str, Any]:
    """Run ``add`` and ``popcount`` on-device against numpy oracles."""
    from repro.apps.bitvector import AmbitBitSystem
    from repro.compile.kernels import BitColumn, add, popcount
    from repro.dram.geometry import small_test_geometry

    system = AmbitBitSystem(
        geometry=small_test_geometry(rows=64, row_bytes=row_bytes)
    )
    device = system.device
    rng = np.random.default_rng(seed)
    n = device.row_bits
    bits = 6

    lhs = rng.integers(0, 1 << bits, n, dtype=np.uint64)
    rhs = rng.integers(0, 1 << bits, n, dtype=np.uint64)
    start_ns = device.elapsed_ns
    a = BitColumn.from_ints(system, lhs, bits)
    b = BitColumn.from_ints(system, rhs, bits, like=a.planes[0])
    total = add(a, b)
    add_ns = device.elapsed_ns - start_ns
    add_ok = bool(
        np.array_equal(total.to_ints(), (lhs + rhs) % (1 << bits))
    )
    for column in (total, a, b):
        column.free()

    planes = [rng.integers(0, 2, n).astype(bool) for _ in range(7)]
    start_ns = device.elapsed_ns
    vectors = [system.from_bits(p) for p in planes]
    counts = popcount(vectors)
    popcount_ns = device.elapsed_ns - start_ns
    popcount_ok = bool(
        np.array_equal(
            counts.to_ints(), np.sum(planes, axis=0).astype(np.uint64)
        )
    )
    counts.free()
    for vector in vectors:
        vector.free()

    return {
        "add_bit_exact": add_ok,
        "add_modelled_ns": add_ns,
        "add_lanes": int(n),
        "add_width_bits": bits,
        "popcount_bit_exact": popcount_ok,
        "popcount_modelled_ns": popcount_ns,
        "popcount_planes": len(planes),
    }


def run_compile_bench(row_bytes: int = 64, seed: int = 7) -> Dict[str, Any]:
    """The full compile-bench payload (``BENCH_compile.json``)."""
    parity = {
        op_name: _parity_case(op_name, expr_text, row_bytes, seed)
        for op_name, expr_text in PARITY_CASES
    }
    kernels = _kernel_section(row_bytes, seed)
    return {
        "config": {"row_bytes": row_bytes, "seed": seed},
        "parity": parity,
        "kernels": kernels,
        "bit_exact": (
            all(case["bit_exact"] for case in parity.values())
            and kernels["add_bit_exact"]
            and kernels["popcount_bit_exact"]
        ),
    }


def format_compile_bench(payload: Dict[str, Any]) -> str:
    """Render the payload as a small human-readable table."""
    lines = ["compiled vs native microprograms (modelled device time)"]
    lines.append(
        f"  {'op':<6} {'native ns':>10} {'compiled ns':>12} "
        f"{'ratio':>7} {'trace':>10}"
    )
    for op_name, case in payload["parity"].items():
        trace = "identical" if case["trace_identical"] else "DIFFERS"
        lines.append(
            f"  {op_name:<6} {case['native_ns']:>10.1f} "
            f"{case['compiled_ns']:>12.1f} {case['ratio']:>7.3f} "
            f"{trace:>10}"
        )
    kernels = payload["kernels"]
    lines.append("bit-serial kernels vs numpy oracles")
    lines.append(
        f"  add      {kernels['add_lanes']} lanes x "
        f"{kernels['add_width_bits']} bits: "
        f"{'bit-exact' if kernels['add_bit_exact'] else 'MISMATCH'} "
        f"({kernels['add_modelled_ns']:.0f} ns modelled)"
    )
    lines.append(
        f"  popcount {kernels['popcount_planes']} planes: "
        f"{'bit-exact' if kernels['popcount_bit_exact'] else 'MISMATCH'} "
        f"({kernels['popcount_modelled_ns']:.0f} ns modelled)"
    )
    return "\n".join(lines)
