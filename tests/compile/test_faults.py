"""Compiled operations survive seeded faults through the recovery ladder.

Each test arms one concrete failure mode against a
:class:`~repro.faults.recover.FaultTolerantSession` and asserts both
the *outcome* (destination holds the oracle image) and the *diagnosis*
(the recovery log names the right rung).  The scenarios mirror the
fixed-op recovery suite: transient TRA glitch -> retry, stuck row ->
spare remap (destination, source, and scratch variants), dead DCC ->
reroute, and the graceful dead end when no healthy route remains.
"""

import numpy as np
import pytest

from repro.compile import compile_expr, parse_expr
from repro.core.device import AmbitDevice
from repro.dram.chip import RowLocation
from repro.dram.geometry import small_test_geometry
from repro.faults.recover import FaultTolerantSession, RecoveryPolicy

#: Working layout inside a 48-row subarray: operands+dst in rows 0-5,
#: scratch at 8-9, spares at 10-17 (all inside the D-group).
SCRATCH = (8, 9)
SPARES = tuple(range(10, 18))
DST = RowLocation(0, 0, 3)
SRC1 = RowLocation(0, 0, 0)
SRC2 = RowLocation(0, 0, 1)
SRC3 = RowLocation(0, 0, 2)
TEMP_BASE = 4


@pytest.fixture
def rig():
    device = AmbitDevice(
        geometry=small_test_geometry(rows=48, row_bytes=32)
    )
    session = FaultTolerantSession(device)
    session.set_scratch(0, 0, SCRATCH)
    session.add_spares(0, 0, SPARES)
    words = device.geometry.subarray.words_per_row
    rng = np.random.default_rng(21)
    images = [
        rng.integers(0, 1 << 63, words, dtype=np.uint64) for _ in range(3)
    ]
    for loc, image in zip((SRC1, SRC2, SRC3), images):
        session.write_row(loc, image)
    session.write_row(DST, np.zeros(words, dtype=np.uint64))
    return device, session, images


def _run(session, cop):
    sources = (SRC1, SRC2, SRC3)[: cop.arity]
    temps = [
        RowLocation(0, 0, TEMP_BASE + t) for t in range(cop.num_temps)
    ]
    session.run_compiled(
        cop,
        [DST],
        [[loc] for loc in sources],
        [[loc] for loc in temps],
    )
    return temps


def _outcomes(session):
    return {(record.kind, record.action) for record in session.log}


class TestTransientFaults:
    def test_tra_glitch_is_retried(self, rig):
        device, session, (im1, im2, im3) = rig
        cop = compile_expr(parse_expr("maj(a, b, c)"), name="carry")
        subarray = device.chip.bank(0).subarray(0)
        words = device.geometry.subarray.words_per_row
        flip = np.full(words, np.uint64(0xFFFFFFFFFFFFFFFF))

        def hook(sensed, _sub=subarray, _flip=flip):
            _sub.tra_fault_hook = None  # one-shot glitch
            return _flip

        subarray.tra_fault_hook = hook
        _run(session, cop)
        want = (im1 & im2) | (im1 & im3) | (im2 & im3)
        assert np.array_equal(device.read_row(DST), want)
        assert ("tra_flip", "retried") in _outcomes(session)
        assert session.unrecovered_count == 0


class TestStuckRows:
    @pytest.mark.parametrize("victim", ["dst", "source", "temp"])
    def test_stuck_row_is_remapped(self, rig, victim):
        device, session, (im1, im2, im3) = rig
        cop = compile_expr(
            parse_expr("mux(c, a ^ b, a & b)"), name="muxed"
        )
        assert cop.num_temps > 0
        words = device.geometry.subarray.words_per_row
        junk = np.full(words, np.uint64(0xDEADBEEFDEADBEEF))
        subarray = device.chip.bank(0).subarray(0)
        repair = device.controller.repair
        if victim == "dst":
            target = DST
        elif victim == "source":
            target = SRC1
        else:
            target = RowLocation(0, 0, TEMP_BASE)
        # Stick the *physical* row currently backing the logical one.
        subarray.inject_stuck_row(
            repair.translate(target.bank, target.subarray, target.address),
            junk,
        )
        _run(session, cop)
        want = (im3 & (im1 ^ im2)) | (~im3 & (im1 & im2))
        assert np.array_equal(device.read_row(DST), want)
        assert ("stuck_row", "remapped") in _outcomes(session)
        assert session.unrecovered_count == 0
        # The victim now lives on a spare row.
        assert (
            repair.translate(target.bank, target.subarray, target.address)
            != target.address
        )

    def test_remapped_rows_stay_remapped(self, rig):
        device, session, (im1, im2, _) = rig
        cop = compile_expr(parse_expr("a ^ b"), name="parity")
        words = device.geometry.subarray.words_per_row
        subarray = device.chip.bank(0).subarray(0)
        subarray.inject_stuck_row(
            device.controller.repair.translate(
                DST.bank, DST.subarray, DST.address
            ),
            np.full(words, np.uint64(0x5555555555555555)),
        )
        _run(session, cop)
        assert ("stuck_row", "remapped") in _outcomes(session)
        before = len(session.log)
        # The next run goes through the spare with no new recovery.
        _run(session, cop)
        assert np.array_equal(device.read_row(DST), im1 ^ im2)
        assert len(session.log) == before


class TestDccFaults:
    def test_single_dcc_op_reroutes(self, rig):
        device, session, (im1, im2, _) = rig
        cop = compile_expr(parse_expr("~(a & b)"), name="nander")
        assert cop.uses_single_dcc and not cop.uses_dual_dcc
        subarray = device.chip.bank(0).subarray(0)
        subarray.inject_dcc_fault(device.amap.row_dcc(0))
        _run(session, cop)
        assert np.array_equal(device.read_row(DST), ~(im1 & im2))
        assert ("dcc", "rerouted") in _outcomes(session)
        assert device.controller.dcc_route[(0, 0)] == 1
        assert session.unrecovered_count == 0

    @pytest.mark.parametrize("dead", [0, 1])
    @pytest.mark.parametrize(
        "text, oracle",
        [
            ("a ^ b", lambda a, b, c: a ^ b),
            ("~(a ^ b)", lambda a, b, c: ~(a ^ b)),
            ("a ^ b ^ c", lambda a, b, c: a ^ b ^ c),
            ("mux(c, a ^ b, a & b)",
             lambda a, b, c: (c & (a ^ b)) | (~c & (a & b))),
        ],
        ids=["xor", "xnor", "xor3", "mux"],
    )
    def test_dual_dcc_op_degrades_around_one_dead_dcc(
        self, rig, text, oracle, dead
    ):
        device, session, images = rig
        cop = compile_expr(parse_expr(text))
        assert cop.uses_dual_dcc
        subarray = device.chip.bank(0).subarray(0)
        subarray.inject_dcc_fault(device.amap.row_dcc(dead))
        want = oracle(*images)
        _run(session, cop)
        assert np.array_equal(device.read_row(DST), want)
        assert ("dcc", "rerouted") in _outcomes(session)
        assert session.unrecovered_count == 0
        assert session.bad_dcc[(0, 0)] == dead
        # The dead DCC is memoised: the next run takes the degraded
        # program up front, with no new mismatch to recover from.
        before = len(session.log)
        session.write_row(DST, np.zeros_like(want))
        _run(session, cop)
        assert np.array_equal(device.read_row(DST), want)
        assert len(session.log) == before

    def test_dual_dcc_op_fails_gracefully(self, rig):
        device, session, _ = rig
        cop = compile_expr(parse_expr("a ^ b"), name="parity")
        assert cop.uses_dual_dcc
        subarray = device.chip.bank(0).subarray(0)
        subarray.inject_dcc_fault(device.amap.row_dcc(0))
        subarray.inject_dcc_fault(device.amap.row_dcc(1))
        _run(session, cop)  # must not raise under the lenient policy
        assert ("op_mismatch", "unrecovered") in _outcomes(session)
        assert session.unrecovered_count > 0

    def test_strict_policy_raises(self, rig):
        from repro.errors import FaultError

        device, session, _ = rig
        session.policy = RecoveryPolicy(strict=True)
        cop = compile_expr(parse_expr("a ^ b"), name="parity")
        subarray = device.chip.bank(0).subarray(0)
        subarray.inject_dcc_fault(device.amap.row_dcc(0))
        subarray.inject_dcc_fault(device.amap.row_dcc(1))
        with pytest.raises(FaultError):
            _run(session, cop)


class TestCleanRunsLeaveNoTrace:
    def test_no_faults_no_records(self, rig):
        device, session, (im1, im2, im3) = rig
        cop = compile_expr(
            parse_expr("maj(a, ~b, c) ^ a"), name="clean"
        )
        _run(session, cop)
        want = (((im1 & ~im2) | (im1 & im3) | (~im2 & im3)) ^ im1)
        assert np.array_equal(device.read_row(DST), want)
        assert list(session.log) == []
        assert session.unrecovered_count == 0
