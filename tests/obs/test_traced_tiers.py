"""Tracing observes both execution tiers without changing them.

With a tracer attached, the serial per-row walk (``fuse=False``) and
the fused engine emit one event stream.  The fused tier emits each
row's op, primitive and command events from the cached command
schedules the accounting charges, so its stream equals the per-row
walk's exactly: same events, timestamps and sequence numbers, and the
same per-op :class:`~repro.obs.counters.CounterSet` fold.

Tracing does not change the traced program either: on both tiers a
traced and an untraced run leave the same command trace, statistics,
clocks and cells, and fault-free, hazard-free rows fuse in both.
"""

import dataclasses
from weakref import WeakKeyDictionary

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compile import compile_expr, parse_expr
from repro.core.device import AmbitDevice
from repro.core.microprograms import BulkOp
from repro.dram.chip import RowLocation
from repro.dram.geometry import small_test_geometry
from repro.obs.counters import OpStats
from repro.obs.events import KIND_OP
from repro.obs.sinks import CounterSink, RingBufferSink
from repro.obs.tracer import Tracer
from tests.golden.regen import COMPILED_CASES

#: The nine native ops plus the four golden compiled ops.
ALL_OPS = tuple(BulkOp) + tuple(
    compile_expr(parse_expr(expr_text), name=name)
    for name, expr_text in COMPILED_CASES
)
TIERS = ("serial", "fused")

GEO = small_test_geometry(rows=64, row_bytes=64, banks=4, subarrays_per_bank=2)
DATA_ROWS = GEO.subarray.data_rows
WORDS = GEO.subarray.words_per_row

UNEVEN_SPREAD = {(0, 0): 3, (0, 1): 2, (1, 0): 1, (3, 1): 4}

#: Local rows each batch item owns: dst, three sources, two temps.
STRIDE = 6


def _op_id(op):
    return op.value


#: Command trace -> every command its device issued since :func:`_fill`.
_CAPTURED = WeakKeyDictionary()


def _fill(device, seed):
    """Seed every data row, capturing the device's commands from here on."""
    _CAPTURED[device.chip.trace] = device.chip.trace.open_capture()
    rng = np.random.default_rng(seed)
    for bank in range(GEO.banks):
        for sub in range(GEO.subarrays_per_bank):
            for addr in range(DATA_ROWS):
                device.write_row(
                    RowLocation(bank, sub, addr),
                    rng.integers(0, 2**63, size=WORDS, dtype=np.uint64),
                )


def _spread_rows(spread, op):
    """Hazard-free operand lists over a {(bank, sub): count} spread.

    Item ``j`` of a subarray owns rows ``6j .. 6j+5``: its destination,
    then the op's sources, then its scratch rows.
    """
    dst = []
    srcs = [[] for _ in range(op.arity)]
    temps = [[] for _ in range(op.num_temps)]
    for (bank, sub), count in spread.items():
        for j in range(count):
            base = STRIDE * j
            dst.append(RowLocation(bank, sub, base))
            for k, col in enumerate(srcs):
                col.append(RowLocation(bank, sub, base + 1 + k))
            for k, col in enumerate(temps):
                col.append(RowLocation(bank, sub, base + 4 + k))
    return dst, srcs, temps


def _run(device, tier, op, spread):
    dst, srcs, temps = _spread_rows(spread, op)
    return device.engine.run_rows(
        op, dst, *srcs, temps=temps, fuse=tier == "fused"
    )


def _attach(device):
    ring, counters = RingBufferSink(), CounterSink()
    device.attach_tracer(Tracer(
        sinks=(ring, counters), timing=device.timing,
        row_bytes=device.row_bytes,
    ))
    return ring, counters


def _traced_serial(op, seed, spread):
    """The reference: a traced per-row walk of one batch."""
    device = AmbitDevice(geometry=GEO)
    _fill(device, seed)
    ring, counters = _attach(device)
    _run(device, "serial", op, spread)
    return device, ring, counters


def _state(device):
    """Cells, clocks, statistics and command trace of a device."""
    stats = device.controller.stats
    return {
        "cells": {
            (bank, sub, addr): device.read_row(
                RowLocation(bank, sub, addr)
            ).tobytes()
            for bank in range(GEO.banks)
            for sub in range(GEO.subarrays_per_bank)
            for addr in range(DATA_ROWS)
        },
        "elapsed_ns": device.elapsed_ns,
        "busy_ns": device.busy_ns,
        "clock_ns": device.chip.clock_ns,
        "aap_count": stats.aap_count,
        "ap_count": stats.ap_count,
        "ops": dict(stats.ops),
        "bank_busy_ns": dict(stats.bank_busy_ns),
        "trace": list(_CAPTURED[device.chip.trace]),
    }


def _assert_same_state(a, b):
    assert _state(a) == _state(b)


@pytest.mark.parametrize("op", ALL_OPS, ids=_op_id)
def test_traced_fused_run_bit_identical_to_serial(op):
    serial, ring_s, counters_s = _traced_serial(op, 23, UNEVEN_SPREAD)

    fused = AmbitDevice(geometry=GEO)
    _fill(fused, 23)
    ring_f, counters_f = _attach(fused)
    report = _run(fused, "fused", op, UNEVEN_SPREAD)

    assert report.fused_rows == report.rows
    _assert_same_state(serial, fused)
    assert counters_s.counters.as_dict() == counters_f.counters.as_dict()
    assert ring_f.events == ring_s.events


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("op", ALL_OPS, ids=_op_id)
def test_tracing_leaves_the_tier_unchanged(op, tier):
    """A traced run of one tier is the same program as an untraced one."""
    outcomes = []
    for traced in (True, False):
        device = AmbitDevice(geometry=GEO)
        _fill(device, 25)
        if traced:
            ring, _ = _attach(device)
        report = _run(device, tier, op, UNEVEN_SPREAD)
        outcomes.append((report, _state(device)))
    assert len(ring) > 0
    assert outcomes[0] == outcomes[1]
    if tier != "serial":
        assert outcomes[0][0].fused_rows == outcomes[0][0].rows


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    op=st.sampled_from(ALL_OPS),
    seed=st.integers(0, 2**31),
    counts=st.lists(st.integers(0, 4), min_size=4, max_size=4),
    data=st.data(),
)
def test_random_spreads_traced_parity(op, seed, counts, data):
    spread = {}
    for bank, count in enumerate(counts):
        if count:
            sub = data.draw(st.integers(0, GEO.subarrays_per_bank - 1))
            spread[(bank, sub)] = count
    serial, ring_s, counters_s = _traced_serial(op, seed, spread)

    fused = AmbitDevice(geometry=GEO)
    _fill(fused, seed)
    ring_f, counters_f = _attach(fused)
    _run(fused, "fused", op, spread)
    assert counters_s.counters.as_dict() == counters_f.counters.as_dict()
    assert ring_f.events == ring_s.events


def _scraped(device):
    """The device's folded metric families, as a scrape reads them."""
    registry = device.metrics
    registry.collect()
    latency = registry.get("ambit_op_latency_ns").children
    return {
        "ops": {
            op: child.value
            for (op,), child in registry.get("ambit_ops_total").children.items()
        },
        "latency": {
            op: (child.count, child.sum) for (op,), child in latency.items()
        },
        "busy_ns": registry.get("ambit_busy_ns_total").value,
        "plan_cache": (
            registry.get("ambit_plan_cache_hits_total").value,
            registry.get("ambit_plan_cache_misses_total").value,
        ),
    }


def _profiled(prof):
    """What :func:`_scraped` must read after a profiled fresh device."""
    c = prof.counters
    return {
        "ops": {name: s.count for name, s in prof.per_op.items()},
        "latency": {
            name: (s.count, s.busy_ns) for name, s in prof.per_op.items()
        },
        "busy_ns": c.busy_ns,
        "plan_cache": (c.plan_cache_hits, c.plan_cache_misses),
    }


def test_profile_table_is_the_same_on_every_tier():
    """``device.profile()`` reports one per-op table whichever tier ran,
    traced or not, and it equals every other fold of the same work: the
    tracer's :class:`CounterSink`, the op events, the controller's
    statistics, and the device's scraped metrics."""
    tables, folds = {}, {}
    for tier in TIERS:
        for traced in (False, True):
            device = AmbitDevice(geometry=GEO)
            _fill(device, 27)
            if traced:
                ring, counters = _attach(device)
            stats = device.controller.stats
            before = (stats.aap_count, stats.ap_count, stats.busy_ns)
            with device.profile() as prof:
                for op in ALL_OPS:
                    _run(device, tier, op, UNEVEN_SPREAD)
            after = (stats.aap_count, stats.ap_count, stats.busy_ns)
            assert _scraped(device) == _profiled(prof)
            report = (
                prof.counters.as_dict(),
                {
                    name: dataclasses.asdict(op_stats)
                    for name, op_stats in prof.per_op.items()
                },
            )
            tables[tier, traced] = prof.format_table()
            folds[tier, traced] = report
            c = prof.counters
            assert tuple(a - b for a, b in zip(after, before)) == (
                c.aaps, c.aps, c.busy_ns
            )
            if not traced:
                continue
            # The record's fold equals the tracer's: its CounterSink
            # (which never sees plan-cache traffic) ...
            sink = dict(
                counters.counters.as_dict(),
                plan_cache_hits=c.plan_cache_hits,
                plan_cache_misses=c.plan_cache_misses,
            )
            assert report[0] == sink
            # ... and the op events, folded per op.
            per_op = {}
            for event in ring.of_kind(KIND_OP):
                per_op.setdefault(event.name, OpStats()).observe(event)
            assert report[1] == {
                name: dataclasses.asdict(op_stats)
                for name, op_stats in per_op.items()
            }
    reference = tables["serial", False]
    assert all(table == reference for table in tables.values())
    assert all(fold == folds["serial", False] for fold in folds.values())
    assert len(folds["serial", False][1]) == len(ALL_OPS)


def test_fused_op_events_carry_the_request_span_context():
    """The serving layer's trace id reaches every op event of a fused
    batch, as it does on the per-row walk."""
    spread = {(bank, 0): 1 for bank in range(GEO.banks)}
    device = AmbitDevice(geometry=GEO)
    _fill(device, 29)
    ring, _ = _attach(device)
    device.tracer.span_context = ("trace-1", "wave:0")
    report = _run(device, "fused", BulkOp.AND, spread)
    ops = [e for e in ring.events if e.kind == KIND_OP]
    assert len(ops) == report.rows == report.fused_rows == GEO.banks
    assert [(e.attrs.get("trace"), e.attrs.get("span"))
            for e in ops] == [("trace-1", "wave:0")] * GEO.banks


def test_consecutive_traced_batches_continue_the_clock():
    op = BulkOp.XOR
    serial, ring_s, _ = _traced_serial(op, 33, UNEVEN_SPREAD)
    _run(serial, "serial", op, UNEVEN_SPREAD)

    fused = AmbitDevice(geometry=GEO)
    _fill(fused, 33)
    ring_f, _ = _attach(fused)
    _run(fused, "fused", op, UNEVEN_SPREAD)
    _run(fused, "fused", op, UNEVEN_SPREAD)
    assert ring_f.events == ring_s.events
    assert serial.elapsed_ns == fused.elapsed_ns
