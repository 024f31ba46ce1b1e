"""The grouped shadow verify equals the per-row loop it replaced.

:class:`FaultTolerantSession` verifies a call per (bank, subarray)
group: one ``eval_rows`` over rows gathered from a 2-D shadow image, one
readback of the destinations, and the ladder for each mismatching row.
:class:`PerRowSession` below is the reference: the same session with a
dict shadow and the per-row ``run_rows`` loop (one ``eval_rows``, one
``read_row`` and one compare per row).  Twin devices run the same calls
-- all nine ops and a compiled op with scratch rows, multi-row groups on
two banks, in-place rows, shared and first-seen sources, and a stuck
row, a TRA flip on one row or a dead DCC -- and must end with equal
cells, command counts, recovery log, ladder attempts, fault counters and
``verify_all()``.  The rows of a call must be independent (no row writes
a row another row reads or writes); a call whose rows are not, whose
row lists do not fit the op and its destinations, or which binds one row
to two positions the op keeps apart, is rejected with
:class:`~repro.errors.AddressError` before anything changes.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compile import compile_expr, parse_expr
from repro.compile.kernels import select_op
from repro.core.device import AmbitDevice
from repro.core.microprograms import BulkOp
from repro.dram.chip import RowLocation
from repro.dram.geometry import small_test_geometry
from repro.errors import AddressError
from repro.faults.recover import FaultTolerantSession

GEOMETRY = small_test_geometry(
    rows=64, row_bytes=32, banks=2, subarrays_per_bank=1
)
WORDS = GEOMETRY.subarray.words_per_row
#: Rows written through the session before any call (owned).
OWNED = tuple(range(8))
#: Rows written straight to the device: an op reading one adopts it.
UNSEEN = (16, 17, 18, 19)
#: Scratch rows of the compiled op; the first is owned.
TEMPS = (10, 11, 12) + tuple(range(30, 46))
RECOVERY_SCRATCH = (20, 21)
SPARES = tuple(range(22, 30))

MUX = compile_expr(parse_expr("mux(c, a ^ b, a & b)"), name="parity_mux")
OPS = tuple(BulkOp) + (MUX,)


class PerRowSession(FaultTolerantSession):
    """The reference: a dict shadow and the per-row verify loop."""

    def __init__(self, device):
        super().__init__(device)
        self.rows = {}

    def _shadow_row(self, loc):
        return self.rows.get(loc)

    def _store(self, loc, value):
        self.rows[loc] = np.array(value, dtype=np.uint64)

    def forget(self, rows):
        for loc in rows:
            self.rows.pop(loc, None)

    def verify_all(self):
        keys = sorted((l.bank, l.subarray, l.address) for l in self.rows)
        return [
            key for key in keys
            if not np.array_equal(
                self.device.read_row(RowLocation(*key)),
                self.rows[RowLocation(*key)],
            )
        ]

    def _shadow_value(self, loc):
        if loc not in self.rows:
            self._store(loc, self.device.read_row(loc))
        return self.rows[loc]

    def run_rows(self, op, dst, *srcs, temps=()):
        srcs = [col for col in srcs if col is not None]
        n = len(dst)
        sources = [[col[i] for col in srcs] for i in range(n)]
        row_temps = [[col[i] for col in temps] for i in range(n)]
        expected = [
            op.eval_rows([self._shadow_value(s) for s in row])
            for row in sources
        ]
        degraded = set()
        if self.bad_dcc and op.uses_dual_dcc:
            degraded = {
                i for i in range(n)
                if (dst[i].bank, dst[i].subarray) in self.bad_dcc
            }
        normal = [i for i in range(n) if i not in degraded]
        if normal:
            self.device.run_rows(
                op,
                [dst[i] for i in normal],
                *[[col[i] for i in normal] for col in srcs],
                temps=[[col[i] for i in normal] for col in temps],
            )
        for i in sorted(degraded):
            self._run_degraded(op, dst[i], sources[i], row_temps[i])
        for i in range(n):
            want, want_temps = expected[i]
            if np.array_equal(self.device.read_row(dst[i]), want):
                self._store(dst[i], want)
                self._sync_temps(row_temps[i], want_temps)
            else:
                self._recover(
                    op, dst[i], sources[i], row_temps[i], want, want_temps
                )


def twins(seed):
    """A reference and a grouped session over identically filled devices."""
    sessions = (
        PerRowSession(AmbitDevice(geometry=GEOMETRY)),
        FaultTolerantSession(AmbitDevice(geometry=GEOMETRY)),
    )
    for session in sessions:
        rng = np.random.default_rng(seed)
        for bank in range(GEOMETRY.banks):
            session.set_scratch(bank, 0, RECOVERY_SCRATCH)
            session.add_spares(bank, 0, SPARES)
            for row in OWNED + TEMPS[:1]:
                session.write_row(RowLocation(bank, 0, row), _row(rng))
            for row in UNSEEN:
                session.device.write_row(RowLocation(bank, 0, row), _row(rng))
    return sessions


def _row(rng):
    return rng.integers(0, 2**64, size=WORDS, dtype=np.uint64)


def arm(device, fault, rows):
    """Inject ``fault`` into ``device`` on one row of the call ``rows``."""
    kind, pick, detail = fault
    if kind == "none":
        return
    loc = rows[pick % len(rows)]
    subarray = device.chip.bank(loc.bank).subarray(loc.subarray)
    if kind == "stuck":
        physical = device.controller.repair.translate(
            loc.bank, loc.subarray, loc.address
        )
        junk = np.full(WORDS, np.uint64(0x5A5A5A5A5A5A5A5A + detail))
        subarray.inject_stuck_row(physical, junk)
    elif kind == "tra":
        # The (detail + 1)-th fresh triple-row activation in the
        # subarray senses an all-ones-flipped value, then the hook
        # disarms: one row of the group is hit, the others are not.
        countdown = [detail]

        def hook(sensed):
            if countdown[0]:
                countdown[0] -= 1
                return None
            subarray.tra_fault_hook = None
            return np.full(WORDS, np.uint64(0xFFFFFFFFFFFFFFFF))

        subarray.tra_fault_hook = hook
    else:
        subarray.inject_dcc_fault(device.amap.row_dcc(detail % 2))


def observe(session):
    """Everything the grouped verify must leave as the loop does."""
    device = session.device
    record = device.chip.trace.record()
    return {
        "cells": [
            device.chip.bank(b).subarray(0).cells.tobytes()
            for b in range(GEOMETRY.banks)
        ],
        "trace": (
            record.tally, _by_value(record.charged), _by_value(record.credited)
        ),
        "log": list(session.log),
        "attempts": [
            (a.op, a.bank, a.subarray, a.address, a.action, a.ok)
            for a in session.attempts
        ],
        "faults": [
            line for line in device.metrics.render_prometheus().splitlines()
            if line.startswith("ambit_faults_")
        ],
        "verify_all": session.verify_all(),
        "repairs": [
            device.controller.repair.repairs(b, 0)
            for b in range(GEOMETRY.banks)
        ],
        "bad_dcc": dict(session.bad_dcc),
        "dcc_route": dict(device.controller.dcc_route),
    }


def _by_value(counts):
    """Trace counters keyed by each op totals' value, not its identity
    (every device's plan cache builds its own totals objects)."""
    folded = {}
    for totals, n in counts.items():
        key = (totals.name, totals.aaps, totals.aps, totals.ns, totals.commands)
        folded[key] = folded.get(key, 0) + n
    return folded


def run_twins(sessions, op, dst, srcs, temps, fault):
    for session in sessions:
        arm(session.device, fault, dst + [loc for col in srcs for loc in col])
        session.run_rows(op, dst, *srcs, temps=temps)
    reference, grouped = (observe(session) for session in sessions)
    for key in reference:
        assert grouped[key] == reference[key], key


@st.composite
def calls(draw, op):
    """One call: up to 4-6 independent rows on each drawn bank,
    interleaved in a drawn order.  Destinations and sources come from a
    small pool, so rows share sources and read their own destinations
    often; a row writes (as destination or scratch) only rows no other
    row of its bank reads or writes."""
    banks = draw(st.sampled_from(((0,), (1,), (0, 1))))
    pool = OWNED + UNSEEN
    rows = []
    for bank in banks:
        written, read = set(), set()
        for _ in range(draw(st.integers(4, 6))):
            free = [r for r in pool if r not in written | read]
            if not free:
                break
            dst = draw(st.sampled_from(free))
            readable = [
                r for r in pool
                if r not in written and not (op is BulkOp.COPY and r == dst)
            ]
            srcs = [draw(st.sampled_from(readable)) for _ in range(op.arity)]
            free = [
                r for r in TEMPS + OWNED
                if r not in written | read and r != dst and r not in srcs
            ]
            if len(free) < op.num_temps:
                break
            temps = draw(st.permutations(free))[: op.num_temps]
            written |= {dst, *temps}
            read |= set(srcs)
            rows.append((bank, dst, srcs, temps))
    return _call(draw(st.permutations(rows)), op)


def _call(rows, op):
    """``(bank, dst, srcs, temps)`` rows as run_rows' columns."""
    loc = lambda bank, a: RowLocation(bank, 0, a)  # noqa: E731
    return (
        [loc(b, d) for b, d, _, _ in rows],
        [[loc(b, s[k]) for b, _, s, _ in rows] for k in range(op.arity)],
        [[loc(b, t[k]) for b, _, _, t in rows] for k in range(op.num_temps)],
    )


FAULTS = st.tuples(
    st.sampled_from(("none", "stuck", "tra", "dcc")),
    st.integers(0, 30),
    st.integers(0, 7),
)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 2**32 - 1),
    steps=st.lists(
        st.sampled_from(OPS).flatmap(
            lambda op: st.tuples(st.just(op), calls(op), FAULTS)
        ),
        min_size=1,
        max_size=3,
    ),
)
def test_grouped_verify_matches_per_row_loop(seed, steps):
    sessions = twins(seed)
    for op, (dst, srcs, temps), fault in steps:
        run_twins(sessions, op, dst, srcs, temps, fault)


def _bank0(addresses):
    return [RowLocation(0, 0, a) for a in addresses]


@pytest.mark.parametrize(
    "case, op, dst, srcs, fault",
    [
        # A stuck destination in the middle of a group of five.
        ("stuck_row", BulkOp.AND, (0, 1, 2, 3, 4), ((5, 5, 5, 5, 5),
                                                    (6, 6, 6, 6, 6)),
         ("stuck", 2, 0)),
        # The third row's TRA senses a flipped value.
        ("tra_flip", BulkOp.OR, (0, 1, 2, 3), ((4, 5, 6, 7),
                                               (7, 6, 5, 4)),
         ("tra", 0, 2)),
        # A dead DCC under an op that needs both.
        ("dead_dcc", BulkOp.XOR, (0, 1, 2, 3), ((4, 5, 6, 7),
                                                (5, 6, 7, 4)),
         ("dcc", 0, 1)),
        # Every row reads its own destination; the second TRA flips,
        # so the retry must restore the clobbered operand first.
        ("in_place", BulkOp.NAND, (0, 1, 2, 3), ((0, 1, 2, 3),
                                                 (4, 5, 6, 7)),
         ("tra", 0, 1)),
        # Rows 0 and 1 share the stuck source row 4: row 0 remaps it,
        # and row 1, computed from the stuck cells, retries.
        ("shared_sources", BulkOp.XNOR, (0, 1, 2, 3), ((4, 4, 5, 5),
                                                       (6, 7, 6, 7)),
         ("stuck", 4, 0)),
        # Every source is adopted from the device on first sight.
        ("first_seen", BulkOp.MAJ, (0, 1, 2, 3), ((16, 17, 18, 19),
                                                  (17, 18, 19, 16),
                                                  (18, 19, 16, 17)),
         ("none", 0, 0)),
    ],
)
def test_named_cases(case, op, dst, srcs, fault):
    sessions = twins(seed=0)
    run_twins(
        sessions, op, _bank0(dst), [_bank0(col) for col in srcs], [], fault
    )


def assert_refused(session, run, match):
    """``run()`` raises AddressError matching ``match`` and leaves
    cells, commands, shadow, log, attempts and fault counters as they
    were."""
    def state():
        shadow = {
            key: (image.tobytes(), owned.tobytes())
            for key, (image, owned) in session._images.items()
        }
        return observe(session), shadow

    before = state()
    with pytest.raises(AddressError, match=match):
        run()
    assert state() == before


def assert_rejected(session, op, rows, row):
    """The call raises AddressError naming call row ``row`` and changes
    nothing (:func:`assert_refused`)."""
    dst, srcs, temps = _call(rows, op)
    assert_refused(
        session,
        lambda: session.run_rows(op, dst, *srcs, temps=temps),
        f"call row {row} .*independent",
    )


@pytest.mark.parametrize(
    "op, rows, row",
    [
        # Call rows 1 and 3 both write row 0 of bank 1.  Row 0, on bank
        # 0, reads two rows the shadow has not seen: the check comes
        # before they are adopted.
        (BulkOp.NAND, [(0, 0, (16, 17), ()), (1, 0, (4, 5), ()),
                       (1, 1, (5, 6), ()), (1, 0, (6, 7), ())], 3),
        # Row 1 writes a source of rows 0 and 2; row 3 reads row 0's
        # destination.
        (BulkOp.XNOR, [(0, 0, (4, 6), ()), (0, 4, (5, 7), ()),
                       (0, 1, (4, 5), ()), (0, 2, (0, 3), ())], 0),
        # Call row 1 reads row 4, which the earlier call row 0 writes.
        (BulkOp.AND, [(0, 4, (5, 6), ()), (0, 1, (4, 7), ())], 1),
        # Call row 0 reads row 4, which the later call row 1 writes.
        (BulkOp.AND, [(0, 1, (4, 7), ()), (0, 4, (5, 6), ())], 0),
    ],
    ids=["duplicate_dst", "dst_is_source", "reads_earlier_write",
         "reads_later_write"],
)
def test_dependent_rows_are_rejected(op, rows, row):
    _, session = twins(seed=0)
    assert_rejected(session, op, rows, row)


#: Calls of the wrong shape, or binding one row to two positions the op
#: keeps apart, each reading rows the shadow has not seen (16-19), so a
#: check that came after adopting them would show.
MALFORMED = [
    # A source list one row longer than the destinations.
    (BulkOp.AND, (0, 1), [_bank0((16, 17, 18)), _bank0((4, 5))], [],
     "align"),
    # A source list one row shorter.
    (BulkOp.AND, (0, 1, 2), [_bank0((16, 17)), _bank0((4, 5, 6))], [],
     "align"),
    # Two source lists for a three-input op.
    (BulkOp.MAJ, (0, 1), [_bank0((16, 17)), _bank0((18, 19))], [],
     "takes 3 source"),
    # Two scratch lists for an op that clobbers three.
    (MUX, (0, 1), [_bank0((16, 17)), _bank0((4, 5)), _bank0((6, 7))],
     [_bank0((30, 31)), _bank0((32, 33))], "needs 3 scratch"),
    # Row 1's second source is on bank 1; bank 0's row 17 is unseen.
    (BulkOp.OR, (0, 1), [_bank0((4, 5)),
                         [RowLocation(0, 0, 16), RowLocation(1, 0, 17)]],
     [], "share a subarray"),
    # A copy onto its own source.
    (BulkOp.COPY, (16,), [_bank0((16,))], [], "same row"),
    # The mux's first scratch row is its first source.
    (MUX, (0,), [_bank0((16,)), _bank0((17,)), _bank0((18,))],
     [_bank0((16,)), _bank0((30,)), _bank0((31,))], "must be distinct"),
]
MALFORMED_IDS = [
    "long_source", "short_source", "wrong_arity", "short_scratch_list",
    "source_in_other_bank", "copy_onto_own_source", "scratch_is_a_source",
]


@pytest.mark.parametrize(
    "op, dst, srcs, temps, match", MALFORMED, ids=MALFORMED_IDS
)
def test_malformed_calls_are_rejected(op, dst, srcs, temps, match):
    _, session = twins(seed=9)
    assert_refused(
        session,
        lambda: session.run_rows(op, _bank0(dst), *srcs, temps=temps),
        match,
    )


@pytest.mark.parametrize(
    "op, dst, srcs, temps, match", MALFORMED, ids=MALFORMED_IDS
)
def test_engine_rejects_the_same_shapes(op, dst, srcs, temps, match):
    _, session = twins(seed=9)
    engine = session.device.engine
    assert_refused(
        session,
        lambda: engine.run_rows(op, _bank0(dst), *srcs, temps=temps),
        match,
    )


def test_multi_output_ops_are_refused():
    """A composed kernel keeps all but its last result in scratch rows,
    which the session does not verify: a well-formed call of one raises
    before anything changes."""
    _, session = twins(seed=9)
    op = select_op(2)  # two planes and a mask: five inputs, two results
    assert (op.arity, op.outputs, op.num_temps) == (5, 2, 3)
    assert_refused(
        session,
        lambda: session.run_rows(
            op, _bank0((8,)), *[_bank0((a,)) for a in (16, 17, 18, 19, 0)],
            temps=[_bank0((t,)) for t in (30, 31, 32)],
        ),
        "writes 2 results",
    )


def test_compiled_op_with_shared_owned_scratch_rows():
    """Every row clobbers the scratch rows 10-12 (10 is owned): two rows
    writing one scratch row are rejected."""
    _, session = twins(seed=5)
    rows = [(0, d, s, (10, 11, 12)) for d, s in (
        (0, (4, 5, 6)), (1, (5, 6, 7)), (2, (6, 7, 4)), (3, (7, 4, 5))
    )]
    assert_rejected(session, MUX, rows, 1)


def test_scratch_rows_aliasing_other_rows_destinations():
    """Row 0's scratch row 1 is row 1's destination: a row writing
    another row's destination is rejected."""
    _, session = twins(seed=6)
    rows = [
        (0, 0, (4, 5, 6), (10, 1, 11)),
        (0, 1, (5, 6, 7), (12, 13, 14)),
    ]
    assert_rejected(session, MUX, rows, 0)


def test_forget_matches_the_dict_pop():
    sessions = twins(seed=8)
    for session in sessions:
        session.forget(_bank0((0, 1)))
        session.device.write_row(RowLocation(0, 0, 0), np.zeros(WORDS, np.uint64))
    # A forgotten source is adopted again: row 0's new zeros are expected.
    run_twins(
        sessions, BulkOp.OR, _bank0((2, 3, 4, 5)),
        [_bank0((0, 1, 0, 1)), _bank0((6, 7, 6, 7))], [], ("none", 0, 0),
    )
