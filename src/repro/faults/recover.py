"""Verified execution with a recovery ladder (Sections 5.5.3 / 6).

:class:`FaultTolerantSession` wraps a device and maintains a host-side
*shadow* of every row the workload owns: one ``(storage_rows,
words_per_row)`` image per (bank, subarray), shaped like the subarray's
own cell array, plus a mask of the rows it owns.
The images are advanced by each op's ``eval_rows`` -- the same
interpreter over :func:`~repro.core.microprograms.apply_bulk_op` the
fused kernels and property tests use -- and never by the chip's cells.

A call is planned once, by the device's batch engine
(:meth:`~repro.engine.batch.BatchEngine.plan_groups`), and verified per
(bank, subarray) group of that plan, as the fused kernel executes it.
The plan checks the call's shape and binding positions, and its rows
must be independent (:func:`~repro.engine.batch.dependent_row`): no row
may write a row (as destination or scratch) that another row of the
call reads or writes.  A row may read its own destination, and rows may
share sources.  Then every expected value follows from the shadow as it
stood before the call, and no ladder rung on one row can change another
row's destination; any other call raises
:class:`~repro.errors.AddressError` before anything changes.  The
operands are gathered from the group's image by the caller's addresses
(a row seen for the first time is adopted from the device's cells) and
evaluated in one ``eval_rows`` over the 2-D block.  The same groups then
run on the device (``run_groups``).  Afterwards the destinations are
read back in one backdoor ``peek_rows`` of the plan's repaired rows (no
DRAM command) and compared row-wise; the matching rows are scattered
into the image, and each mismatching row walks the recovery ladder, in
call order.

The ladder:

1. **retry** -- restore the source rows from the shadow and re-execute.
   A transient variation-induced TRA failure (Section 6) does not
   recur, so a clean retry both recovers and diagnoses it.  Sources are
   restored *first* because a failed in-place op has already clobbered
   its destination-aliased operand.
2. **probe + remap** -- command-path march probes
   (:mod:`repro.faults.detect`) over the operand rows; rows that fail
   are remapped to spare rows in the same subarray through the
   controller's :class:`~repro.core.repair.RowRepairMap`
   (Section 5.5.3), their contents rewritten from the shadow, and the
   operation re-executed.
3. **DCC reroute** -- probe the dual-contact rows the program uses; if
   an n-wordline is dead, flip the subarray's
   :attr:`~repro.core.controller.AmbitController.dcc_route` to the
   healthy DCC (ops whose negations use one DCC) or, for any op with
   XOR/XNOR steps (which need both DCCs; one broken leaves no 8-AAP
   path), run it with those steps rewritten into the minimal-B-group
   composition of :func:`~repro.core.microprograms.compile_xor_minimal`
   (:func:`~repro.compile.ops.without_dual_dcc`) through the healthy
   DCC.  The broken DCC is memoised so later such ops on that subarray
   skip the ladder and take the degraded program directly.
4. **unrecovered** -- counted, recorded, and (in strict mode) raised as
   :class:`~repro.errors.FaultError`.

Every step feeds the ``ambit_faults_{detected,recovered,unrecovered}``
counters with the *diagnosed* kind, so a scrape distinguishes "rode out
a TRA glitch" from "burned a spare row".
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import asdict, dataclass
from functools import partial
from itertools import islice
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.microprograms import Microprogram, StepProgram
from repro.dram.chip import RowLocation
from repro.engine.batch import RowGroup
from repro.errors import AddressError, FaultError
from repro.faults.detect import probe_dcc, probe_row
from repro.obs.metrics import fault_counters

#: How many timed ladder rungs a session retains.  The serving layer
#: only ever reads the rungs appended during the current wave (via
#: :meth:`FaultTolerantSession.attempts_since`), so a bounded ring
#: keeps long chaos soaks from leaking memory while staying far larger
#: than any single wave's ladder walk.
ATTEMPT_HISTORY = 4096

#: How many ladder outcomes (:class:`RecoveryRecord`) a session retains.
#: The serving layer reads back only the current wave's outcomes (via
#: :meth:`FaultTolerantSession.log_since`), and the recovered and
#: unrecovered counts are running totals, so the ring may drop old
#: records without changing either.
LOG_HISTORY = 4096


@dataclass(frozen=True)
class RecoveryPolicy:
    """Knobs of the recovery ladder.

    ``enabled=False`` turns the session into a detector only: every
    mismatch is counted as an unrecovered ``op_mismatch`` (the mode the
    ``repro chaos --no-recovery`` acceptance run uses to prove faults
    are actually being caught).  ``strict`` raises
    :class:`~repro.errors.FaultError` on the first unrecovered fault
    instead of recording it and continuing.
    """

    enabled: bool = True
    strict: bool = False


@dataclass(frozen=True)
class RecoveryRecord:
    """One ladder outcome, for reports and tests."""

    op: str
    bank: int
    subarray: int
    address: int
    kind: str
    action: str  # "retried" | "remapped" | "rerouted" | "unrecovered"


@dataclass(frozen=True)
class RecoveryAttempt:
    """One *timed* rung of the ladder, for request-span attribution.

    Distinct from :class:`RecoveryRecord`: the log records diagnosed
    *outcomes* (and golden tests compare it), while attempts record
    every rung the ladder climbed -- including failed ones -- with
    wall-clock timestamps (``perf_counter_ns``) so the serving layer
    can carve recovery time out of device time per request.
    """

    op: str
    bank: int
    subarray: int
    address: int
    action: str  # "retry" | "remap" | "dcc_reroute"
    ok: bool
    start_ns: int
    dur_ns: int

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form, as embedded in request-span timing dicts."""
        return asdict(self)


class FaultTolerantSession:
    """Shadow-verified bulk execution over a (possibly faulty) device.

    Usage::

        session = FaultTolerantSession(device)
        session.set_scratch(bank, sub, (8, 9))
        session.add_spares(bank, sub, range(10, 16))
        session.write_row(loc, data)          # verified store
        session.run_rows(BulkOp.AND, dsts, srcs1, srcs2)
        session.run_rows(cop, dsts, *operand_rows, temps=scratch_rows)
        assert session.unrecovered_count == 0
    """

    def __init__(self, device, policy: Optional[RecoveryPolicy] = None):
        self.device = device
        self.policy = policy if policy is not None else RecoveryPolicy()
        self.controller = device.controller
        self.amap = device.amap
        #: (bank, subarray) -> ``(image, owned)``: the shadow row values
        #: by logical address, and the mask of rows the workload owns.
        #: Allocated zeroed on first touch, so rows nobody owns stay
        #: unresident.
        self._images: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = {}
        #: (bank, subarray) -> two reserved scratch D-group rows the
        #: ladder may destroy (DCC probes, degraded programs).
        self.scratch: Dict[Tuple[int, int], Tuple[int, int]] = {}
        #: (bank, subarray) -> DCC diagnosed dead; ops with XOR/XNOR
        #: steps on these subarrays run degraded without a mismatch.
        self.bad_dcc: Dict[Tuple[int, int], int] = {}
        #: Ladder outcomes, the most recent :data:`LOG_HISTORY` of them.
        self.log: Deque[RecoveryRecord] = deque(maxlen=LOG_HISTORY)
        #: Monotonic count of every outcome ever recorded (never
        #: trimmed); mark it around a wave and read the wave's outcomes
        #: back with :meth:`log_since`.
        self.log_total: int = 0
        self._recovered_total = 0
        self._unrecovered_total = 0
        #: Timed ladder rungs (see :class:`RecoveryAttempt`), the most
        #: recent :data:`ATTEMPT_HISTORY` of them.  The serving layer
        #: marks :attr:`attempts_total` around each wave and reads the
        #: new rungs back via :meth:`attempts_since` to attribute
        #: recovery time to the requests it delayed; the ring bound
        #: keeps week-long chaos soaks from growing without limit.
        self.attempts: Deque[RecoveryAttempt] = deque(maxlen=ATTEMPT_HISTORY)
        #: Monotonic count of every rung ever climbed (never trimmed).
        self.attempts_total: int = 0
        self._counters = fault_counters(device.metrics)

    # ------------------------------------------------------------------
    # Provisioning
    # ------------------------------------------------------------------
    def set_scratch(self, bank: int, subarray: int, rows: Sequence[int]) -> None:
        """Reserve two D-group rows the recovery ladder may clobber."""
        if len(rows) < 2:
            raise AddressError("recovery scratch needs two rows")
        self.scratch[(bank, subarray)] = (int(rows[0]), int(rows[1]))

    def add_spares(self, bank: int, subarray: int, rows: Sequence[int]) -> None:
        """Donate D-group rows to the subarray's spare pool."""
        self.controller.repair.add_spares(bank, subarray, rows)

    # ------------------------------------------------------------------
    # Verified row I/O
    # ------------------------------------------------------------------
    def write_row(self, loc: RowLocation, data: np.ndarray) -> None:
        """Store a row, verify the store, remap on a stuck cell.

        The shadow keeps the intended image; a row whose readback
        differs (a hard stuck-at fault swallows writes) is remapped to
        spares until a healthy one takes the data.
        """
        data = np.array(data, dtype=np.uint64)
        self.device.write_row(loc, data)
        self._store(loc, data)
        if not np.array_equal(self.device.read_row(loc), data):
            self._repair_stored("write", loc, data)

    def read_row(self, loc: RowLocation) -> np.ndarray:
        """Read one row through the device's (repair-aware) address path."""
        return self.device.read_row(loc)

    def forget(self, rows: Sequence[RowLocation]) -> None:
        """Stop shadowing ``rows``, e.g. when their owner frees them.

        Clears the rows' owned bits: they leave :meth:`verify_all` and
        :meth:`scrub`, an op that reads one adopts the device's cells as
        for a row never seen, and the next store owns it again.
        """
        for loc in rows:
            image = self._images.get((loc.bank, loc.subarray))
            if image is not None:
                image[1][loc.address] = False

    def scrub(self) -> List[Tuple[int, int, int]]:
        """Patrol scrub: re-read every shadowed row, repair mismatches.

        A stuck-at fault in a row the workload has not touched since
        injection only shows up on a read; the scrub remaps such rows to
        spares and rewrites them from the shadow, so a soak's final
        verification exercises recovery instead of merely reporting
        corruption.  Returns the keys that could not be repaired.
        """
        bad = []
        for key in self.verify_all():
            loc = RowLocation(*key)
            if not self._repair_stored("scrub", loc, self._shadow_row(loc)):
                bad.append(key)
        return bad

    def _repair_stored(self, op: str, loc: RowLocation, data: np.ndarray) -> bool:
        """A stored row reads back wrong (a stuck-at fault swallows
        writes): remap it until a spare holds ``data``, else record it
        unrecovered.  ``op`` labels the log and the attempt."""
        self._counters["detected"].labels(kind="stuck_row").inc()
        rewrite = partial(self._rewrite_with_remap, op, loc, data)
        if self.policy.enabled and self._rung(op, loc, "remap", rewrite):
            return True
        self._unrecovered(op, loc, "stuck_row")
        return False

    def _rewrite_with_remap(
        self, op: str, loc: RowLocation, data: np.ndarray
    ) -> bool:
        """Remap ``loc`` to spares until one verifiably holds ``data``."""
        while self._next_spare(loc):
            self.device.write_row(loc, data)
            if np.array_equal(self.device.read_row(loc), data):
                self._counters["recovered"].labels(kind="stuck_row").inc()
                self._record(op, loc, "stuck_row", "remapped")
                return True
        return False

    def _next_spare(self, loc: RowLocation) -> bool:
        """Retire ``loc``'s physical row for the subarray's next free
        spare; False when none is left (or ``loc`` is itself a spare)."""
        repair = self.controller.repair
        retired = repair.translate(loc.bank, loc.subarray, loc.address)
        try:
            repair.assign(loc.bank, loc.subarray, loc.address)
        except AddressError:
            return False
        # The retired physical row is unreachable from here on, so lifting
        # its fault flag is safe, and ``has_faults`` stops gating
        # fused execution for the whole subarray.
        subarray = self.device.chip.bank(loc.bank).subarray(loc.subarray)
        subarray.clear_stuck_row(retired)
        return True

    # ------------------------------------------------------------------
    # Verified bulk execution
    # ------------------------------------------------------------------
    def run_rows(
        self,
        op: StepProgram,
        dst: Sequence[RowLocation],
        *srcs: Optional[Sequence[RowLocation]],
        temps: Sequence[Sequence[RowLocation]] = (),
    ) -> None:
        """Execute, verify each destination, recover on mismatch.

        ``op`` is a :class:`~repro.core.microprograms.BulkOp` or a
        compiled op, with one row list per input in ``srcs`` (``None``
        entries are dropped) and one per scratch slot in ``temps``; row
        ``i`` of every list shares ``dst[i]``'s (bank, subarray).  A call
        of another shape, one binding a row to two positions the op
        keeps apart, or one whose rows are not independent (see the
        module docstring) raises :class:`~repro.errors.AddressError`
        before anything changes.  Scratch rows are clobbered by
        construction; those the shadow owns (when something else made
        them interesting) are re-synced to the op's final scratch values.
        An op with more than one result (``outputs > 1``, a composed
        bit-serial kernel) keeps results in scratch rows, which are not
        verified, so it raises :class:`~repro.errors.AddressError` too.
        """
        if op.outputs > 1:
            raise AddressError(
                f"{op.value} writes {op.outputs} results per row; a "
                f"verified call checks one destination per row"
            )
        groups = self.device.engine.plan_groups(op, dst, *srcs, temps=temps)
        for group in groups:
            if group.dependent is not None:
                j, address, w = group.dependent
                address = group.logical[j][group.rows[j].index(address)]
                raise AddressError(
                    f"run_rows call row {group.indices[j]} touches bank "
                    f"{group.bank} subarray {group.subarray} row {address}, "
                    f"which call row {group.indices[w]} writes; the rows of "
                    f"a verified call must be independent"
                )
        expected = [self._expect(op, group) for group in groups]
        self._execute(op, groups)
        bad = {}
        for group, (want, want_temps) in zip(groups, expected):
            bad.update(self._commit(group, want, want_temps))
        srcs = [col for col in srcs if col is not None]
        for i in sorted(bad):
            self._recover(
                op, dst[i], [col[i] for col in srcs], [col[i] for col in temps],
                *bad[i],
            )

    def bbop_row(
        self,
        op: StepProgram,
        dst: RowLocation,
        *srcs: Optional[RowLocation],
        temps: Sequence[RowLocation] = (),
    ) -> None:
        """Single-row convenience wrapper over :meth:`run_rows`."""
        self.run_rows(
            op,
            [dst],
            *[[s] for s in srcs if s is not None],
            temps=[[t] for t in temps],
        )

    def run_compiled(self, cop, dst, operands, temps) -> None:
        """``run_rows(cop, dst, *operands, temps=temps)``.

        Kept only because ``bench/layers.py`` wraps this name; nothing
        under ``src/`` calls it.  Remove it when a benchmark change
        edits that file's ``LAYERS``.
        """
        return self.run_rows(cop, dst, *operands, temps=temps)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def unrecovered_count(self) -> int:
        """Outcomes recorded unrecovered, ever (not only those retained)."""
        return self._unrecovered_total

    @property
    def recovered_count(self) -> int:
        """Outcomes recorded recovered, ever (not only those retained)."""
        return self._recovered_total

    def verify_all(self) -> List[Tuple[int, int, int]]:
        """Re-read every shadowed row; returns the ``(bank, subarray,
        address)`` keys that mismatch, sorted.  Each subarray's owned
        rows are read back at once."""
        translate = self.controller.repair.translate
        bad = []
        for (bank, sub), (image, owned) in sorted(self._images.items()):
            addresses = np.flatnonzero(owned)
            got = self.device.chip.peek_rows(bank, sub, [
                translate(bank, sub, address) for address in addresses.tolist()
            ])
            wrong = addresses[(got != image[addresses]).any(axis=1)]
            bad.extend((bank, sub, address) for address in wrong.tolist())
        return bad

    # ------------------------------------------------------------------
    # The recovery ladder
    # ------------------------------------------------------------------
    def _recover(
        self,
        op: StepProgram,
        dst: RowLocation,
        sources: List[RowLocation],
        temps: List[RowLocation],
        expected: np.ndarray,
        expected_temps: Sequence[np.ndarray],
    ) -> None:
        if not self.policy.enabled:
            self._counters["detected"].labels(kind="op_mismatch").inc()
            self._unrecovered(op.value, dst, "op_mismatch")
            return
        rerun = partial(
            self._reexecute, op, dst, sources, temps, expected, expected_temps
        )

        # Rung 1: restore sources and retry -- a transient TRA glitch
        # (the armed one-shot variation fault) does not recur.
        if self._rung(op.value, dst, "retry", rerun):
            self._counters["detected"].labels(kind="tra_flip").inc()
            self._counters["recovered"].labels(kind="tra_flip").inc()
            self._record(op.value, dst, "tra_flip", "retried")
            return

        # Rung 2: march-probe the operand and scratch rows (a stuck
        # scratch row corrupts the result just as a stuck operand does);
        # remap the dead ones to spares and rewrite them from the shadow.
        remap = partial(self._remap_stuck_rows, op, dst, sources + temps)
        if self._rung(op.value, dst, "remap", remap, rerun):
            return

        # Rung 3: probe the DCC rows the program uses; reroute or
        # degrade around a dead n-wordline.
        reroute = partial(self._reroute_dcc, op, dst)
        if self._rung(op.value, dst, "dcc_reroute", reroute, rerun):
            self._counters["recovered"].labels(kind="dcc").inc()
            self._record(op.value, dst, "dcc", "rerouted")
            return

        self._unrecovered(op.value, dst, "op_mismatch")

    def _rung(
        self, op: str, loc: RowLocation, action: str, *steps: Callable[[], bool]
    ) -> bool:
        """Climb one timed rung: run ``steps`` in order while they
        succeed, and log the rung as an attempt."""
        started = time.perf_counter_ns()
        ok = all(step() for step in steps)
        self._attempt(op, loc, action, ok, started)
        return ok

    def _reexecute(
        self,
        op: StepProgram,
        dst: RowLocation,
        sources: List[RowLocation],
        temps: List[RowLocation],
        expected: np.ndarray,
        expected_temps: Sequence[np.ndarray],
    ) -> bool:
        """Restore sources from the shadow, re-run one row, verify.

        Restoring first matters for in-place operations: after a failed
        attempt the destination holds garbage, and the destination may
        alias a source.  Scratch rows need no restore: every step writes
        a scratch row before any step reads it.
        """
        self._restore_sources(sources)
        self._execute(op, self.device.engine.plan_groups(
            op, [dst], *[[s] for s in sources], temps=[[t] for t in temps]
        ))
        if np.array_equal(self.device.read_row(dst), expected):
            self._store(dst, expected)
            self._sync_temps(temps, expected_temps)
            return True
        return False

    def _remap_stuck_rows(
        self, op: StepProgram, dst: RowLocation, rows: List[RowLocation]
    ) -> bool:
        """Probe rows; remap+rewrite failures.  True if any remapped."""
        repair = self.controller.repair
        remapped = False
        seen = set()
        for loc in [dst] + list(rows):
            if loc in seen or not self.amap.is_d_group(loc.address):
                continue  # control rows cannot be remapped
            seen.add(loc)
            physical = repair.translate(loc.bank, loc.subarray, loc.address)
            if probe_row(self.device, loc.bank, loc.subarray, physical):
                # Probe destroyed the row's contents; put them back.
                self._restore_sources([loc])
                continue
            self._counters["detected"].labels(kind="stuck_row").inc()
            # A spare can be stuck too: walk the pool until one probes
            # healthy; out of spares, let the ladder continue.
            healthy = False
            while not healthy and self._next_spare(loc):
                healthy = probe_row(
                    self.device, loc.bank, loc.subarray,
                    repair.translate(loc.bank, loc.subarray, loc.address),
                )
            if not healthy:
                return remapped
            value = self._shadow_row(loc)
            if value is not None:
                self.device.write_row(loc, value)
            self._counters["recovered"].labels(kind="stuck_row").inc()
            self._record(op.value, loc, "stuck_row", "remapped")
            remapped = True
        return remapped

    def _reroute_dcc(self, op: StepProgram, dst: RowLocation) -> bool:
        """Probe the DCC rows ``op`` uses on ``dst``'s subarray; True if
        a dead one was routed around."""
        bank, sub = dst.bank, dst.subarray
        scratch = self.scratch.get((bank, sub))
        if scratch is None:
            return False
        if op.uses_dual_dcc:
            # XOR/XNOR steps need both DCC rows: with exactly one dead,
            # memoise it and rerun degraded through the other.
            broken = [
                r
                for r in (0, 1)
                if not probe_dcc(self.device, bank, sub, r, scratch)
            ]
            if not broken:
                return False
            self._counters["detected"].labels(kind="dcc").inc(len(broken))
            if len(broken) == 2:
                return False
            self.bad_dcc[(bank, sub)] = broken[0]
        elif op.uses_single_dcc:
            route = self.controller.dcc_route.get((bank, sub), 0)
            if probe_dcc(self.device, bank, sub, route, scratch):
                return False
            self._counters["detected"].labels(kind="dcc").inc()
            other = 1 - route
            if not probe_dcc(self.device, bank, sub, other, scratch):
                return False  # both routes dead; unrecoverable here
            self.controller.dcc_route[(bank, sub)] = other
        else:
            return False
        return True

    def _sync_temps(
        self, temps: List[RowLocation], values: Sequence[np.ndarray]
    ) -> None:
        # Scratch rows enter the shadow only through an explicit
        # verified write; fresh driver leases stay out of it so
        # verify_all()/scrub() never chase recycled scratch garbage.
        for loc, value in zip(temps, values):
            if self._shadow_row(loc) is not None:
                self._store(loc, value)

    # ------------------------------------------------------------------
    # Execution plumbing
    # ------------------------------------------------------------------
    def _execute(self, op: StepProgram, groups: List[RowGroup]) -> None:
        """Run planned groups on the device.  Rows on subarrays with a
        known-dead DCC cannot take XOR/XNOR steps: they take the
        degraded program up front, in call order, instead of
        rediscovering the fault every op."""
        degraded = []
        if self.bad_dcc and op.uses_dual_dcc:
            degraded = [
                g for g in groups if (g.bank, g.subarray) in self.bad_dcc
            ]
            groups = [
                g for g in groups if (g.bank, g.subarray) not in self.bad_dcc
            ]
        if groups:
            self.device.run_groups(op, groups)
        rows = sorted(
            (i, g, binding) for g in degraded
            for i, binding in zip(g.indices, g.logical)
        )
        for _, g, (dk, *operands) in rows:
            loc = partial(RowLocation, g.bank, g.subarray)
            self._run_degraded(
                op, loc(dk), [loc(a) for a in operands[:g.arity]],
                [loc(a) for a in operands[g.arity:]],
            )

    def _run_degraded(
        self,
        op: StepProgram,
        dst: RowLocation,
        sources: List[RowLocation],
        temps: List[RowLocation],
    ) -> None:
        """Run one row of ``op`` around a dead DCC (Section 5.1 path).

        The op's XOR/XNOR steps are rewritten into the minimal-B-group
        composition over the session's two scratch rows
        (:func:`~repro.compile.ops.without_dual_dcc`) and every
        negation goes through the healthy DCC.  The degraded program is
        one execution of ``op``: it counts once, under ``op``'s label.
        ``run_program`` does not consult the repair map, so addresses
        are translated here first.
        """
        # Imported here: only this rare path needs the compiler, and the
        # serving layer does not otherwise load it.
        from repro.compile.ops import without_dual_dcc

        bank, sub = dst.bank, dst.subarray
        scratch = self.scratch.get((bank, sub))
        if scratch is None:
            raise FaultError(
                f"degraded {op.value} on bank {bank} subarray {sub} needs "
                f"session scratch rows; call set_scratch first"
            )
        repair = self.controller.repair
        t = lambda a: repair.translate(bank, sub, a)  # noqa: E731
        program = without_dual_dcc(op).program(
            self.amap,
            t(dst.address),
            [t(loc.address) for loc in sources],
            [t(loc.address) for loc in temps] + [t(a) for a in scratch],
            dcc=1 - self.bad_dcc.get((bank, sub), 1),
        )
        self.controller.run_program(
            Microprogram(op, program.primitives), bank, sub
        )

    def _restore_sources(self, sources: Sequence[RowLocation]) -> None:
        for loc in sources:
            value = self._shadow_row(loc)
            if value is not None:
                self.device.write_row(loc, value)

    # ------------------------------------------------------------------
    # The shadow images
    # ------------------------------------------------------------------
    def _image(self, bank: int, sub: int) -> Tuple[np.ndarray, np.ndarray]:
        image = self._images.get((bank, sub))
        if image is None:
            geometry = self.device.geometry.subarray
            rows = geometry.storage_rows
            image = self._images[bank, sub] = (
                np.zeros((rows, geometry.words_per_row), dtype=np.uint64),
                np.zeros(rows, dtype=bool),
            )
        return image

    def _shadow_row(self, loc: RowLocation) -> Optional[np.ndarray]:
        """The shadow of one row, or ``None`` if the workload does not
        own it."""
        image = self._images.get((loc.bank, loc.subarray))
        if image is None or not image[1][loc.address]:
            return None
        return image[0][loc.address]

    def _store(self, loc: RowLocation, value: np.ndarray) -> None:
        image, owned = self._image(loc.bank, loc.subarray)
        image[loc.address] = value
        owned[loc.address] = True

    def _expect(self, op: StepProgram, group: RowGroup) -> tuple:
        """The group's expected destination and scratch values, from one
        ``eval_rows`` over its shadow image.

        A source row the shadow does not own yet is adopted: the
        device's cells, read at the plan's repaired address, are trusted
        on first sight.
        """
        bank, sub, arity = group.bank, group.subarray, group.arity
        image, owned = self._image(bank, sub)
        sources = np.array(group.logical_columns()[1:1 + arity], dtype=np.intp)
        unseen = ~owned[sources]
        if unseen.any():
            physical = np.array(group.columns()[1:1 + arity], dtype=np.intp)
            image[sources[unseen]] = self.device.chip.peek_rows(
                bank, sub, physical[unseen].tolist()
            )
            owned[sources[unseen]] = True
        return op.eval_rows([image[col] for col in sources])

    def _commit(self, group: RowGroup, want, want_temps) -> Dict[int, tuple]:
        """Read the group's destinations back and scatter the rows that
        match into its image: each destination, and its scratch rows the
        shadow owns.  Returns the other rows' expected values (the
        destination's and the scratch rows'), by call position."""
        bank, sub = group.bank, group.subarray
        dst, *operands = group.logical_columns()
        got = self.device.chip.peek_rows(bank, sub, group.columns()[0])
        bad = (got != want).any(axis=1)
        ok = np.flatnonzero(~bad) if bad.any() else slice(None)
        image, owned = self._images[bank, sub]
        for col, values in zip(operands[group.arity:], want_temps):
            col = np.asarray(col)[ok]
            mine = owned[col]
            image[col[mine]] = values[ok][mine]
        dst = np.asarray(dst)[ok]
        image[dst] = want[ok]
        owned[dst] = True
        return {
            group.indices[j]: (want[j], [t[j] for t in want_temps])
            for j in np.flatnonzero(bad).tolist()
        }

    def attempts_since(self, mark: int) -> List[RecoveryAttempt]:
        """The rungs appended after ``attempts_total`` was ``mark``.

        The wave runner snapshots :attr:`attempts_total` before
        executing and calls this afterwards; indexing through the
        monotonic counter (rather than ``len(attempts)``) stays correct
        after the bounded ring has started discarding old rungs.
        Rungs that have already been pushed out of the ring are gone --
        acceptable, since the caller always reads back within one wave.
        """
        return _since(self.attempts, self.attempts_total, mark)

    def log_since(self, mark: int) -> List[RecoveryRecord]:
        """The outcomes recorded after :attr:`log_total` was ``mark``.

        As :meth:`attempts_since` does for rungs: the wave runner marks
        :attr:`log_total` before executing and reads the wave's outcomes
        back afterwards, correct after the bounded ring has started
        discarding old records.
        """
        return _since(self.log, self.log_total, mark)

    def _attempt(
        self, op: str, loc: RowLocation, action: str, ok: bool, start_ns: int
    ) -> None:
        self.attempts.append(RecoveryAttempt(
            op, loc.bank, loc.subarray, loc.address, action, ok,
            start_ns, time.perf_counter_ns() - start_ns,
        ))
        self.attempts_total += 1

    def _record(self, op: str, loc: RowLocation, kind: str, action: str) -> None:
        self.log.append(
            RecoveryRecord(op, loc.bank, loc.subarray, loc.address, kind, action)
        )
        self.log_total += 1
        if action == "unrecovered":
            self._unrecovered_total += 1
        else:
            self._recovered_total += 1

    def _unrecovered(self, op: str, loc: RowLocation, kind: str) -> None:
        self._counters["unrecovered"].labels(kind=kind).inc()
        self._record(op, loc, kind, "unrecovered")
        # Re-sync the shadow with reality so one unrecovered fault does
        # not cascade into a mismatch storm on every downstream op; the
        # unrecovered count (not the shadow) is the failure signal.
        self._store(loc, self.device.read_row(loc))
        if self.policy.strict:
            raise FaultError(
                f"unrecovered {kind} fault: {op} at bank {loc.bank} "
                f"subarray {loc.subarray} row {loc.address} (see "
                f"docs/RELIABILITY.md for the recovery ladder)"
            )


def _since(ring: Deque, total: int, mark: int) -> List:
    """The items appended to ``ring`` after its running ``total`` was
    ``mark`` (those still retained)."""
    start = max(0, mark - (total - len(ring)))
    if start == 0:
        return list(ring)
    return list(islice(ring, start, None))

