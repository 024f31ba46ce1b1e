"""Composed bit-serial kernels: one op per kernel, the ripple's cost.

Every kernel of :mod:`repro.compile.kernels` but ``popcount`` is one
op composed from its per-plane steps (:func:`repro.compile.ops.compose`)
and run by one ``BitVector.op_into``.  Its steps are the plane-by-plane
ripple's steps, so one kernel call must charge the accounting record
exactly what that ripple charged, one ``compute`` per plane step: the
literals below were measured on it at width 8.
"""

import numpy as np
import pytest

from repro.apps.bitvector import AmbitBitSystem
from repro.compile import kernels
from repro.compile.kernels import (
    BORROW3,
    CARRY3,
    DIFF3,
    EQ_STEP,
    LT_STEP,
    MUX,
    SUM3,
    BitColumn,
    add_op,
    eq_op,
    lt_op,
    select_op,
    sub_op,
)
from repro.compile.ops import compose
from repro.core.microprograms import BulkOp
from repro.dram.chip import RowLocation
from repro.dram.geometry import small_test_geometry
from repro.engine.batch import BatchEngine
from repro.errors import AddressError, AllocationError, CompileError
from repro.obs.counters import fold_record

WIDTH = 8
KERNELS = ("add", "sub", "compare_lt", "compare_eq", "select")
#: Two 512-bit rows per plane, one on each bank.
GEO = dict(rows=64, row_bytes=64, banks=2, subarrays_per_bank=1)


def _columns(system, lanes, seed=5, colocated=True):
    """Columns ``a``, ``b`` and a mask, co-located with ``a`` unless not
    ``colocated``; and their values."""
    rng = np.random.default_rng(seed)
    lhs, rhs = (
        rng.integers(0, 1 << WIDTH, lanes, dtype=np.uint64) for _ in range(2)
    )
    bits = rng.integers(0, 2, lanes).astype(bool)
    a = BitColumn.from_ints(system, lhs, WIDTH)
    like = a.planes[0] if colocated else None
    b = BitColumn.from_ints(system, rhs, WIDTH, like=like)
    mask = system.from_bits(bits, like=a.planes[0])
    return (a, b, mask), (lhs, rhs, bits)


def _call(name, a, b, mask):
    args = (mask, a, b) if name == "select" else (a, b)
    return getattr(kernels, name)(*args)


def _expected(name, lhs, rhs, bits):
    return {
        "add": (lhs + rhs) % (1 << WIDTH),
        "sub": (lhs - rhs) % (1 << WIDTH),
        "compare_lt": lhs < rhs,
        "compare_eq": lhs == rhs,
        "select": np.where(bits, lhs, rhs),
    }[name]


@pytest.fixture
def run_groups_calls(monkeypatch):
    """Counts ``BatchEngine.run_groups`` calls."""
    calls = []
    run_groups = BatchEngine.run_groups

    def counted(self, op, groups, fuse=True):
        calls.append(op)
        return run_groups(self, op, groups, fuse=fuse)

    monkeypatch.setattr(BatchEngine, "run_groups", counted)
    return calls


#: Per kernel: commands by (kind, wordlines raised), AAPs, APs, busy ns,
#: elapsed ns and energy (pJ) of one call on two-row planes over two
#: banks -- each measured on the plane-by-plane ripple.
COST = {
    "add": ({("ACTIVATE", 1): 304, ("ACTIVATE", 2): 96, ("ACTIVATE", 3): 112,
             ("PRECHARGE", 1): 288}, 224, 64, 13856.0, 6928.0, 14540.0),
    "sub": ({("ACTIVATE", 1): 376, ("ACTIVATE", 2): 96, ("ACTIVATE", 3): 112,
             ("PRECHARGE", 1): 324}, 260, 64, 15620.0, 7810.0, 16340.0),
    "compare_lt": ({("ACTIVATE", 1): 496, ("ACTIVATE", 2): 48,
                    ("ACTIVATE", 3): 96, ("PRECHARGE", 1): 336},
                   304, 32, 16336.0, 8168.0, 17255.0),
    "compare_eq": ({("ACTIVATE", 1): 216, ("ACTIVATE", 2): 48,
                    ("ACTIVATE", 3): 64, ("PRECHARGE", 1): 180},
                   148, 32, 8692.0, 4346.0, 9147.0),
    "select": ({("ACTIVATE", 1): 400, ("ACTIVATE", 3): 48,
                ("PRECHARGE", 1): 224}, 224, 0, 10976.0, 5488.0, 11662.0),
}
LABELS = {"add": "c:add8", "sub": "c:sub8", "compare_lt": "c:lt8",
          "compare_eq": "c:eq8", "select": "c:select8"}


@pytest.mark.parametrize("name", KERNELS)
def test_one_call_costs_what_the_ripple_did(name, run_groups_calls):
    system = AmbitBitSystem(geometry=small_test_geometry(**GEO))
    device = system.device
    (a, b, mask), values = _columns(system, 2 * device.row_bits)
    stats = device.controller.stats
    before = device.chip.trace.record()
    busy, elapsed = stats.busy_ns, device.elapsed_ns
    result = _call(name, a, b, mask)
    delta = device.chip.trace.record() - before
    counters, per_op = fold_record(delta, device.row_bytes)
    commands = {
        (opcode.name, wordlines): n
        for (opcode, wordlines), n in delta.commands().items()
    }
    assert (
        commands, counters.aaps, counters.aps, stats.busy_ns - busy,
        device.elapsed_ns - elapsed, counters.energy_pj,
    ) == COST[name]
    # One engine call, and one label: one execution per row.
    assert len(run_groups_calls) == 1
    assert {label: s.count for label, s in per_op.items()} == {
        LABELS[name]: 2
    }
    got = result.to_ints() if isinstance(result, BitColumn) else result.to_bits()
    assert np.array_equal(got, _expected(name, *values))


def test_the_lib_query_shape(run_groups_calls):
    """``select(compare_lt(add(a, b), c), a, b)`` over 8-bit columns of
    one 8 KiB row per plane, all on one subarray: the benchmark's lib
    query.  It costs 20584 ns and 1224 commands, and peaks at 43 rows
    allocated, as the plane-by-plane ripple did, in three engine calls
    (the ripple made 32)."""
    system = AmbitBitSystem(geometry=small_test_geometry(
        rows=74, row_bytes=8192, banks=4, subarrays_per_bank=1,
    ))
    device = system.device
    rng = np.random.default_rng(1)
    lanes = device.row_bits
    a_values, b_values, c_values = (
        rng.integers(0, 1 << WIDTH, lanes, dtype=np.uint64) for _ in range(3)
    )
    a = BitColumn.from_ints(system, a_values, WIDTH)
    b, c = (
        BitColumn.from_ints(system, v, WIDTH, like=a.planes[0])
        for v in (b_values, c_values)
    )
    for _ in range(2):  # the second query binds other rows to the plans
        before = device.chip.trace.record()
        elapsed = device.elapsed_ns
        del run_groups_calls[:]
        total = kernels.add(a, b)
        mask = kernels.compare_lt(total, c)
        chosen = kernels.select(mask, a, b)
        delta = device.chip.trace.record() - before
        assert device.elapsed_ns - elapsed == 20584.0
        assert sum(delta.commands().values()) == 1224
        assert len(run_groups_calls) == 3
        total_values = (a_values + b_values) % (1 << WIDTH)
        assert np.array_equal(
            chosen.to_ints(),
            np.where(total_values < c_values, a_values, b_values),
        )
        for vector in (total, mask, chosen):
            vector.free()
    assert device.driver.high_water_rows == 43


@pytest.mark.parametrize("name", KERNELS)
def test_partial_last_row_keeps_every_padding_zero(name):
    """Two-row planes with 37 lanes in the last row: values match numpy
    and every result's tail bits read zero (``compare_eq``'s fold maps
    all-zero lanes to one, so its tail must be cleared)."""
    system = AmbitBitSystem(geometry=small_test_geometry(**GEO))
    device = system.device
    lanes = device.row_bits + 37
    (a, b, mask), values = _columns(system, lanes, seed=8)
    result = _call(name, a, b, mask)
    planes = result.planes if isinstance(result, BitColumn) else [result]
    got = result.to_ints() if isinstance(result, BitColumn) else result.to_bits()
    assert np.array_equal(got, _expected(name, *values))
    for plane in planes:
        assert plane.handle.num_rows == 2
        tail = np.unpackbits(
            device.read_row(plane.handle.rows[-1]).view(np.uint8),
            bitorder="little",
        )
        assert not tail[37:].any()


@pytest.mark.parametrize("name", KERNELS)
def test_columns_not_colocated_are_refused(name):
    """A kernel op stages no operand: on columns allocated without
    ``like=`` it raises before anything runs and frees its results."""
    system = AmbitBitSystem(geometry=small_test_geometry(**GEO))
    device = system.device
    (a, b, mask), _ = _columns(system, device.row_bits, colocated=False)
    assert not system.driver.colocated(a.planes[0].handle, b.planes[0].handle)
    in_use, commands = system.driver.rows_in_use, len(device.chip.trace)
    with pytest.raises(AllocationError, match="like="):
        _call(name, a, b, mask)
    assert system.driver.rows_in_use == in_use
    assert len(device.chip.trace) == commands


# ----------------------------------------------------------------------
# The composed ops themselves
# ----------------------------------------------------------------------
def _plane_steps(*plane_ops):
    return [step.op for op in plane_ops for step in op.steps]


def test_kernel_steps_are_the_plane_steps_in_order():
    ops = {
        add_op(WIDTH): _plane_steps(*[SUM3, CARRY3] * WIDTH),
        sub_op(WIDTH): [BulkOp.NOT] + _plane_steps(*[DIFF3, BORROW3] * WIDTH),
        lt_op(WIDTH): _plane_steps(*[LT_STEP] * WIDTH),
        eq_op(WIDTH): [BulkOp.NOT] + _plane_steps(*[EQ_STEP] * WIDTH),
        select_op(WIDTH): _plane_steps(*[MUX] * WIDTH),
    }
    for op, steps in ops.items():
        assert [step.op for step in op.steps] == steps, op.value
    # Built once per width; results before the ripple's scratch.
    assert add_op(WIDTH) is add_op(WIDTH)
    assert (add_op(WIDTH).outputs, lt_op(WIDTH).outputs) == (WIDTH, 1)
    assert [op.num_temps for op in ops] == [9, 9, 4, 2, 9]


def test_destination_written_early_is_kept_apart():
    """``add``'s destination (its top sum plane) is written before the
    last carry, which reads the sources: it may alias none of them.
    ``compare_lt`` writes its destination last, so it may."""
    add8, lt8 = add_op(WIDTH), lt_op(WIDTH)
    sources = range(1, 1 + add8.arity)
    assert {(0, p) for p in sources} <= set(add8.distinct_rows())
    assert not {(0, p) for p in sources} & set(lt8.distinct_rows())
    system = AmbitBitSystem(geometry=small_test_geometry(**GEO))
    amap = system.device.controller.amap
    temps = list(range(20, 20 + add8.num_temps))
    with pytest.raises(AddressError, match="distinct from the sources"):
        add8.program(amap, 1, list(range(1, 18)), temps)
    lt8.program(amap, 1, list(range(1, 18)), temps[:lt8.num_temps])


def test_template_hits_reject_a_destination_on_a_source():
    """The plan template's set test passes distinct rows at once and
    still names the clash of a hit that repeats one."""
    system = AmbitBitSystem(geometry=small_test_geometry(**GEO))
    engine = system.device.engine
    op = add_op(2)  # five sources, three scratch rows
    row = lambda address: [RowLocation(0, 0, address)]  # noqa: E731
    temps = [row(t) for t in (10, 11, 12)]
    engine.run_rows(op, row(0), *[row(s) for s in range(1, 6)], temps=temps)
    with pytest.raises(AddressError, match="positions 0 and 3 .* both are 3"):
        engine.run_rows(
            op, row(3), *[row(s) for s in range(1, 6)], temps=temps
        )


@pytest.mark.parametrize(
    "calls, outputs, match",
    [
        # The destination may not be read.
        ([(BulkOp.NOT, ("x",), "d"), (BulkOp.NOT, ("d",), "e")],
         ["e", "d"], "reads"),
        # Nor an unwritten value.
        ([(BulkOp.NOT, ("y",), "d")], ["d"], "reads"),
        # Each call writes a new value.
        ([(BulkOp.NOT, ("x",), "d"), (BulkOp.NOT, ("x",), "d")],
         ["d"], "new value"),
        # Every output is written.
        ([(BulkOp.NOT, ("x",), "d")], ["e", "d"], "no call writes"),
        # Inputs and outputs have one name each.
        ([(BulkOp.NOT, ("x",), "x")], ["x"], "unique"),
        # A call binds one argument per input.
        ([(BulkOp.AND, ("x",), "d")], ["d"], "takes 2 arguments"),
    ],
)
def test_compose_rejects_malformed_calls(calls, outputs, match):
    with pytest.raises(CompileError, match=match):
        compose("bad", ["x"], calls, outputs)
