"""Golden command-sequence definitions + regeneration entry point.

Each ``tests/golden/<op>.trace`` file is the exact
:mod:`repro.dram.trace_io` text of one bulk bitwise operation (Figure 8)
executed on the canonical tiny device at fixed addresses.  The tests in
``tests/obs/test_golden_traces.py`` assert byte-for-byte equality, so a
change to microprogram sequencing is a reviewable diff, never silent
drift.

After an *intentional* microprogram change, regenerate with::

    PYTHONPATH=src python -m tests.golden.regen

and commit the resulting diffs alongside the change that caused them.
"""

from __future__ import annotations

import pathlib

import numpy as np

from repro.core.device import AmbitDevice
from repro.core.microprograms import BulkOp
from repro.dram.chip import RowLocation
from repro.dram.geometry import small_test_geometry
from repro.obs import CommandLog

GOLDEN_DIR = pathlib.Path(__file__).parent

#: The seven bulk bitwise operations with golden traces.
GOLDEN_OPS = (
    BulkOp.AND,
    BulkOp.OR,
    BulkOp.NOT,
    BulkOp.NAND,
    BulkOp.NOR,
    BulkOp.XOR,
    BulkOp.XNOR,
)

#: Fixed operand addresses: Di=0, Dj=1, Dk=3 in bank 0, subarray 0.
DST = RowLocation(0, 0, 3)
SRC1 = RowLocation(0, 0, 0)
SRC2 = RowLocation(0, 0, 1)


def golden_device() -> AmbitDevice:
    """The canonical device shape (identical to the ``tiny_geo`` fixture)."""
    return AmbitDevice(
        geometry=small_test_geometry(
            rows=32, row_bytes=64, banks=2, subarrays_per_bank=2
        )
    )


def golden_trace_text(op: BulkOp, device: AmbitDevice = None) -> str:
    """The trace text of one canonical execution of ``op``."""
    if device is None:
        device = golden_device()
    log = CommandLog(device)
    try:
        device.bbop_row(op, DST, SRC1, SRC2 if op.arity >= 2 else None)
        return log.text() + "\n"
    finally:
        log.detach()


def golden_path(op: BulkOp) -> pathlib.Path:
    return GOLDEN_DIR / f"{op.value}.trace"


# ----------------------------------------------------------------------
# Compiled-operation traces (repro.compile)
# ----------------------------------------------------------------------
#: Third operand for three-input compiled expressions.
SRC3 = RowLocation(0, 0, 2)

#: Canonical compiled expressions with pinned command streams: the two
#: ops whose synthesized programs must match the hand-written native
#: ones (the parity tests time exactly these), plus a mux and the
#: full-adder carry the bit-serial kernels are built from.
COMPILED_CASES = (
    ("compiled_and", "a & b"),
    ("compiled_xor", "a ^ b"),
    ("compiled_mux", "mux(c, a, b)"),
    ("compiled_carry", "maj(a, b, c)"),
)

#: Compiled scratch rows start here (clear of the fixed operands).
COMPILED_TEMP_BASE = 4


def compiled_trace_text(name: str, expr_text: str, device=None) -> str:
    """The trace text of one canonical compiled-op execution."""
    from repro.compile import compile_expr, parse_expr

    cop = compile_expr(parse_expr(expr_text), name=name)
    if device is None:
        device = golden_device()
    sources = list((SRC1, SRC2, SRC3)[: cop.arity])
    temps = [
        RowLocation(0, 0, COMPILED_TEMP_BASE + t)
        for t in range(cop.num_temps)
    ]
    log = CommandLog(device)
    try:
        device.bbop_row(cop, DST, *sources, temps=temps)
        return log.text() + "\n"
    finally:
        log.detach()


def compiled_path(name: str) -> pathlib.Path:
    return GOLDEN_DIR / f"{name}.trace"


# ----------------------------------------------------------------------
# Recovery-ladder traces (repro.faults)
# ----------------------------------------------------------------------
#: One scenario per recovery rung: transient-TRA retry, stuck-row
#: spare remap, dead-DCC reroute of a single-DCC op (NOT), and the
#: dead-DCC rung of a dual-DCC op (XOR), which runs the minimal-B-group
#: composition through the healthy DCC.  Each trace pins the *entire*
#: command stream of one faulty operation -- the failed attempt, the
#: detection probes, and the recovered re-execution.
RECOVERY_SCENARIOS = ("retry", "remap", "dcc", "xor")

#: Recovery working set inside the golden device's 14 data rows.
RECOVERY_SCRATCH = (8, 9)
RECOVERY_SPARES = (10, 11, 12, 13)


def recovery_trace_text(scenario: str) -> str:
    """The command stream of one canonical fault-recovery episode.

    Setup (row images, scratch, spares, fault arming) happens before
    the log attaches, so the trace starts at the faulty operation and
    ends at its verified recovery.  The expected ladder rung is
    asserted, so a regen that silently drifts to a different recovery
    action fails here instead of pinning the wrong stream.
    """
    from repro.faults.recover import FaultTolerantSession

    device = golden_device()
    session = FaultTolerantSession(device)
    session.set_scratch(0, 0, RECOVERY_SCRATCH)
    session.add_spares(0, 0, RECOVERY_SPARES)
    words = device.geometry.subarray.words_per_row
    src1 = np.full(words, np.uint64(0x0F0F0F0F0F0F0F0F))
    src2 = np.full(words, np.uint64(0x00FF00FF00FF00FF))
    session.write_row(SRC1, src1)
    session.write_row(SRC2, src2)
    session.write_row(DST, np.zeros(words, dtype=np.uint64))
    subarray = device.chip.bank(0).subarray(0)

    if scenario == "retry":
        # A one-shot variation glitch: the next TRA senses all-flipped.
        mask = np.full(words, np.uint64(0xFFFFFFFFFFFFFFFF))

        def hook(sensed, _sub=subarray, _mask=mask):
            _sub.tra_fault_hook = None
            return _mask

        subarray.tra_fault_hook = hook
        expected_action = "retried"
    elif scenario == "remap":
        # Source row 0 pinned to the complement of its intended image.
        subarray.inject_stuck_row(SRC1.address, ~src1)
        expected_action = "remapped"
    elif scenario == "dcc":
        # DCC0's n-wordline fails open; the route must flip to DCC1.
        subarray.inject_dcc_fault(device.amap.row_dcc(0))
        expected_action = "rerouted"
    elif scenario == "xor":
        # The same dead DCC0 under XOR, whose 8-AAP program needs both
        # DCC rows: the ladder must degrade to the composition.
        subarray.inject_dcc_fault(device.amap.row_dcc(0))
        expected_action = "rerouted"
    else:
        raise ValueError(f"unknown recovery scenario {scenario!r}")

    log = CommandLog(device)
    try:
        if scenario == "dcc":
            session.bbop_row(BulkOp.NOT, DST, SRC1)
            reference = ~src1
        elif scenario == "xor":
            session.bbop_row(BulkOp.XOR, DST, SRC1, SRC2)
            reference = src1 ^ src2
            assert ("dcc", "rerouted") in {
                (record.kind, record.action) for record in session.log
            }, "the xor scenario must recover through the DCC rung"
        else:
            session.bbop_row(BulkOp.AND, DST, SRC1, SRC2)
            reference = src1 & src2
        assert np.array_equal(device.read_row(DST), reference), (
            f"recovery scenario {scenario!r} did not restore the result"
        )
        actions = {record.action for record in session.log}
        assert expected_action in actions, (
            f"scenario {scenario!r} expected a {expected_action!r} "
            f"recovery, saw {sorted(actions)}"
        )
        assert session.unrecovered_count == 0
        return log.text() + "\n"
    finally:
        log.detach()


def recovery_path(scenario: str) -> pathlib.Path:
    return GOLDEN_DIR / f"recovery_{scenario}.trace"


def main() -> None:
    for op in GOLDEN_OPS:
        path = golden_path(op)
        path.write_text(golden_trace_text(op))
        print(f"wrote {path}")
    for name, expr_text in COMPILED_CASES:
        path = compiled_path(name)
        path.write_text(compiled_trace_text(name, expr_text))
        print(f"wrote {path}")
    for scenario in RECOVERY_SCENARIOS:
        path = recovery_path(scenario)
        path.write_text(recovery_trace_text(scenario))
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
