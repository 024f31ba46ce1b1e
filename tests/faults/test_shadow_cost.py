"""The grouped shadow verify costs one kernel per group, not one per row.

Call counts, not wall time: a verified 32-row call on four banks is
planned once, evaluates the shadow once per (bank, subarray) group and
reads no row back through ``device.read_row``; a mismatch sends only the
mismatching row down the recovery ladder.
"""

import sys

import numpy as np
import pytest

from repro.core.device import AmbitDevice
from repro.core.microprograms import BulkOp, StepProgram
from repro.dram.chip import RowLocation
from repro.dram.geometry import small_test_geometry
from repro.engine import batch
from repro.faults.recover import FaultTolerantSession

BANKS = 4
ROWS_PER_BANK = 8


@pytest.fixture
def rig(monkeypatch):
    """A provisioned session whose shadow ``eval_rows`` calls and
    ``device.read_row`` locations are counted."""
    device = AmbitDevice(
        geometry=small_test_geometry(
            rows=48, row_bytes=64, banks=BANKS, subarrays_per_bank=1
        )
    )
    session = FaultTolerantSession(device)
    words = device.geometry.subarray.words_per_row
    rng = np.random.default_rng(3)
    for bank in range(BANKS):
        session.set_scratch(bank, 0, (24, 25))
        session.add_spares(bank, 0, (26, 27, 28))
        for row in range(3 * ROWS_PER_BANK):
            session.write_row(
                RowLocation(bank, 0, row),
                rng.integers(0, 2**64, size=words, dtype=np.uint64),
            )

    counts = {"eval_rows": 0, "read_row": []}
    in_device = [False]
    eval_rows = StepProgram.eval_rows
    run_groups = device.run_groups
    read_row = device.read_row

    def counted_eval_rows(op, sources):
        if not in_device[0]:  # the fused kernel's own calls do not count
            counts["eval_rows"] += 1
        return eval_rows(op, sources)

    def device_run_groups(*args, **kwargs):
        in_device[0] = True
        try:
            return run_groups(*args, **kwargs)
        finally:
            in_device[0] = False

    def counted_read_row(loc):
        counts["read_row"].append(loc)
        return read_row(loc)

    monkeypatch.setattr(StepProgram, "eval_rows", counted_eval_rows)
    monkeypatch.setattr(device, "run_groups", device_run_groups)
    monkeypatch.setattr(device, "read_row", counted_read_row)
    return device, session, counts


def count_calls(monkeypatch, function):
    """Count calls of ``function`` from every loaded ``repro`` module
    that binds it by name; returns the one-element counter."""
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return function(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and (
            getattr(module, function.__name__, None) is function
        ):
            monkeypatch.setattr(module, function.__name__, counted)
    return calls


def columns(banks, rows=ROWS_PER_BANK):
    """Bank-major destination and two source columns."""
    def col(base):
        return [
            RowLocation(bank, 0, base + r) for bank in banks for r in range(rows)
        ]

    return col(0), col(ROWS_PER_BANK), col(2 * ROWS_PER_BANK)


def stick(device, loc):
    words = device.geometry.subarray.words_per_row
    device.chip.bank(loc.bank).subarray(loc.subarray).inject_stuck_row(
        loc.address, np.full(words, np.uint64(0x0F0F0F0F0F0F0F0F))
    )


def test_healthy_call_is_one_kernel_per_group_and_no_row_reads(rig):
    device, session, counts = rig
    dst, src1, src2 = columns(range(BANKS))
    assert len(dst) == 32
    session.run_rows(BulkOp.XOR, dst, src1, src2)
    assert counts["eval_rows"] == BANKS
    assert counts["read_row"] == []
    assert session.verify_all() == [] and not session.log


def test_healthy_call_is_planned_once(rig, monkeypatch):
    """One ``group_rows`` pass for the call and one ``dependent_row`` per
    group, shared by the shadow and the device; one plan-cache lookup
    per row."""
    device, session, _ = rig
    grouped = count_calls(monkeypatch, batch.group_rows)
    tested = count_calls(monkeypatch, batch.dependent_row)
    cache = device.controller.plan_cache
    hits, misses = cache.hits, cache.misses
    dst, src1, src2 = columns(range(BANKS))
    session.run_rows(BulkOp.XOR, dst, src1, src2)
    assert grouped == [1]
    assert tested == [BANKS]
    assert (cache.hits - hits, cache.misses - misses) == (len(dst) - 1, 1)
    assert session.verify_all() == [] and not session.log


def test_stuck_last_row_alone_takes_the_per_row_step(rig):
    device, session, counts = rig
    dst, src1, src2 = columns(range(BANKS))
    stick(device, dst[-1])
    session.run_rows(BulkOp.AND, dst, src1, src2)
    assert counts["eval_rows"] == BANKS
    assert set(counts["read_row"]) == {dst[-1]}
    assert [(r.address, r.action) for r in session.log] == [
        (dst[-1].address, "remapped")
    ]
    assert session.unrecovered_count == 0 and session.verify_all() == []


def test_only_the_mismatching_row_is_re_read(rig):
    device, session, counts = rig
    dst, src1, src2 = columns([0])
    stick(device, dst[3])
    session.run_rows(BulkOp.OR, dst, src1, src2)
    assert counts["eval_rows"] == 1
    assert set(counts["read_row"]) == {dst[3]}
    assert [(r.address, r.action) for r in session.log] == [
        (dst[3].address, "remapped")
    ]
    assert session.unrecovered_count == 0 and session.verify_all() == []
