"""Backend of the operation compiler: netlist -> AAP microprograms.

A :class:`CompiledOp` is the compiled artefact: a straight-line
sequence of :class:`~repro.core.microprograms.Step`\\ s over an abstract
row-slot space -- input slots ``0..arity-1``, scratch slots
``arity..arity+num_temps-1``, plus the sentinels :data:`C0_SLOT`/
:data:`C1_SLOT` (the pre-initialised all-zeros/all-ones control rows)
and :data:`DST_SLOT` (the caller's destination row).  Each step is one
Figure-8 program (AND/OR/NAND/NOR/XOR/XNOR/MAJ/NOT/COPY), so a compiled
plan's cost is exactly the sum of the hand-written programs it strings
together; a compiled two-input AND or XOR is byte-for-byte the paper's
own program.

A compiled op is a :class:`~repro.core.microprograms.StepProgram`, like
each of the nine :class:`~repro.core.microprograms.BulkOp`\\ s (which are
one-step programs): the same interpreter binds it to rows and evaluates
it, and every layer above runs it through the same path.

Lowering applies NOT-pushdown through the dual-contact cells: a gate
whose value is consumed only in negated form is emitted as its
negative-output native variant (AND -> NAND, OR -> NOR, XOR -> XNOR),
which costs nothing extra because the DCC inversion rides along with
the triple-row activation.  Residual negations fall back to the 2-AAP
DCC NOT, materialised once per value and shared.

Scratch slots are assigned by a linear scan over step liveness, so a
deep expression reuses a small set of reserved rows instead of one row
per gate.

:func:`compose` strings whole compiled ops into one multi-output op --
a bit-serial kernel over all its bit planes, issued as one operation
as SIMDRAM issues one μProgram.  Its steps are exactly the steps of the
ops it strings together, in order, so its cost is exactly the sum of
theirs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.compile.ir import Expr
from repro.compile.netlist import (
    CONST,
    IN,
    NODE,
    Netlist,
    Operand,
    build_netlist,
)
from repro.core.microprograms import (
    C0_SLOT,
    C1_SLOT,
    DST_SLOT,
    DUAL_DCC_OPS,
    BulkOp,
    Step,
    StepProgram,
    xor_minimal_steps,
)
from repro.errors import CompileError

__all__ = [
    "C0_SLOT",
    "C1_SLOT",
    "DST_SLOT",
    "CompiledOp",
    "Step",
    "compile_expr",
    "compose",
    "without_dual_dcc",
]


@dataclass(frozen=True)
class CompiledOp(StepProgram):
    """A synthesized bulk-bitwise operation (see module docstring)."""

    name: str
    inputs: Tuple[str, ...]
    steps: Tuple[Step, ...]
    num_temps: int
    fingerprint: str
    #: Results: the first ``outputs - 1`` scratch slots, then the
    #: destination (see :class:`~repro.core.microprograms.StepProgram`).
    outputs: int = 1

    @property
    def value(self) -> str:
        """Label used by metrics, tracing, and plan-cache stats."""
        return f"c:{self.name}"

    @property
    def arity(self) -> int:
        return len(self.inputs)

    # The shared interpreter, bound in this class too so that compiled
    # evaluation is an attribute of its own (bench/layers.py times it).
    eval_rows = StepProgram.eval_rows

    def __hash__(self) -> int:
        # The fingerprint digests the inputs and steps, so equal ops hash
        # equal; the generated hash would re-hash every step on each of
        # the plan cache's lookups.
        return hash((self.name, self.fingerprint))

    # -- human-readable form -----------------------------------------
    def _slot_name(self, slot: int) -> str:
        if slot == DST_SLOT:
            return "dst"
        if slot == C0_SLOT:
            return "C0"
        if slot == C1_SLOT:
            return "C1"
        if slot < self.arity:
            return self.inputs[slot]
        return f"t{slot - self.arity}"

    def describe(self) -> List[str]:
        """One line per step, for ``repro compile --stats``."""
        lines = []
        for step in self.steps:
            operands = ", ".join(self._slot_name(s) for s in step.srcs)
            lines.append(
                f"{step.op.value:5s} {self._slot_name(step.dst)} <- {operands}"
            )
        return lines

    def __repr__(self) -> str:
        return (
            f"CompiledOp({self.value}/{self.arity}, {len(self.steps)} steps, "
            f"{self.num_temps} temps, {self.num_aap} AAP + {self.num_ap} AP)"
        )


def _fingerprint(inputs, steps) -> str:
    return hashlib.sha1(repr((inputs, steps)).encode()).hexdigest()[:12]


def without_dual_dcc(op: StepProgram) -> CompiledOp:
    """``op`` with each XOR/XNOR step rewritten to need one DCC row.

    Every XOR/XNOR step becomes the minimal-B-group composition of
    :func:`~repro.core.microprograms.xor_minimal_steps` through two
    extra scratch slots (the last two); other steps are kept.  This is
    the degraded program the fault layer runs, with the healthy DCC as
    its route, on a subarray where one DCC n-wordline is dead.
    """
    s0 = op.arity + op.num_temps
    steps: List[Step] = []
    for step in op.steps:
        if step.op in DUAL_DCC_OPS:
            di, dj = step.srcs
            steps.extend(
                xor_minimal_steps(step.op, di, dj, step.dst, s0, s0 + 1)
            )
        else:
            steps.append(step)
    inputs = tuple(f"x{i}" for i in range(op.arity))
    return CompiledOp(
        name=f"{op.value}~minimal",
        inputs=inputs,
        steps=tuple(steps),
        num_temps=op.num_temps + 2,
        fingerprint=_fingerprint(inputs, steps),
        outputs=op.outputs,
    )


def compose(
    name: str,
    inputs: Sequence[str],
    calls: Sequence[Tuple[StepProgram, Sequence[str], str]],
    outputs: Sequence[str],
) -> CompiledOp:
    """String single-output ops into one op with ``len(outputs)`` results.

    ``inputs`` names the composed op's inputs, in order.  Each call
    ``(op, args, result)`` runs ``op``'s steps, in order, with its
    inputs bound to the values named ``args`` (in ``op``'s input order)
    and its destination to a new value named ``result``; its scratch
    rows are its own.  ``outputs`` names the results: the first
    ``len(outputs) - 1`` land in the leading scratch slots and the last
    in :data:`DST_SLOT`, which no later call may read.  Every other
    value -- a ripple carry, an op's internal scratch -- takes a
    scratch slot from the liveness scan behind :func:`compile_expr`.

    Nothing is re-synthesised: the composed steps are the calls' steps
    one for one, so its cost is exactly the sum of the calls' costs.
    """
    arity = len(inputs)
    first = arity + len(outputs) - 1  # the first slot the scan hands out
    slots: Dict[str, int] = {value: i for i, value in enumerate(inputs)}
    slots.update((value, arity + k) for k, value in enumerate(outputs[:-1]))
    slots[outputs[-1]] = DST_SLOT
    if len(slots) != arity + len(outputs):
        raise CompileError(f"{name}: input and output names must be unique")
    written = set(inputs)
    virtual = first
    steps: List[Step] = []
    for op, args, result in calls:
        if op.outputs != 1 or len(args) != op.arity:
            raise CompileError(
                f"{name}: {op.value} takes {op.arity} arguments and "
                f"writes one result; got {len(args)} arguments, "
                f"{op.outputs} results"
            )
        unknown = sorted(set(args) - written)
        if unknown or outputs[-1] in args or result in written:
            raise CompileError(
                f"{name}: {op.value} reads {list(args)} and writes "
                f"{result!r}; a call reads inputs and earlier results "
                f"other than the destination, and writes a new value"
            )
        written.add(result)
        if result not in slots:
            slots[result] = virtual
            virtual += 1
        # The op's slots -> the composed op's; each write of a scratch
        # slot takes a fresh virtual slot, as the liveness scan expects.
        local = {slot: slots[value] for slot, value in enumerate(args)}
        local[DST_SLOT] = slots[result]
        for step in op.steps:
            srcs = tuple(local.get(slot, slot) for slot in step.srcs)
            if step.dst != DST_SLOT:
                local[step.dst] = virtual
                virtual += 1
            steps.append(Step(step.op, local[step.dst], srcs))
    unwritten = sorted(set(outputs) - written)
    if unwritten:
        raise CompileError(f"{name}: no call writes {unwritten}")
    steps, num_temps = _allocate(steps, first)
    return CompiledOp(
        name=name,
        inputs=tuple(inputs),
        steps=tuple(steps),
        num_temps=first - arity + num_temps,
        fingerprint=_fingerprint(tuple(inputs), steps),
        outputs=len(outputs),
    )


# ----------------------------------------------------------------------
# Netlist -> steps
# ----------------------------------------------------------------------
class _Emitter:
    """Emit native steps for the live nodes of a netlist."""

    def __init__(self, net: Netlist):
        self.net = net
        self.n = len(net.inputs)
        self.steps: List[Step] = []
        self.next_vtemp = self.n
        # Slots currently holding each value, by polarity.
        self.pos_slot: Dict[Tuple[str, int], int] = {
            (IN, i): i for i in range(self.n)
        }
        self.neg_slot: Dict[Tuple[str, int], int] = {}
        # Dead-node elimination: hash-consing can orphan a gate when a
        # later fold collapses its only consumer (e.g. x ^ x over a
        # shared x), so only nodes reachable from the output are live.
        self.live: set = set()
        self._mark(net.output)
        # Use polarities decide the NOT-pushdown variants.
        self.pos_uses: Dict[Tuple[str, int], int] = {}
        self.neg_uses: Dict[Tuple[str, int], int] = {}
        self._count(net.output)
        for index in self.live:
            for operand in net.nodes[index].operands:
                self._count(operand)

    def _mark(self, operand: Operand) -> None:
        if operand.kind == NODE and operand.index not in self.live:
            self.live.add(operand.index)
            for inner in self.net.nodes[operand.index].operands:
                self._mark(inner)

    def _count(self, operand: Operand) -> None:
        if operand.kind == CONST:
            return
        key = (operand.kind, operand.index)
        table = self.neg_uses if operand.neg else self.pos_uses
        table[key] = table.get(key, 0) + 1

    # ------------------------------------------------------------------
    def _vtemp(self) -> int:
        slot = self.next_vtemp
        self.next_vtemp += 1
        return slot

    def _emit(self, op: BulkOp, dst: int, srcs: Tuple[int, ...]) -> None:
        self.steps.append(Step(op, dst, srcs))

    def _resolve(self, operand: Operand) -> int:
        """Slot holding the operand's value, materialising a NOT if due."""
        if operand.kind == CONST:
            return C1_SLOT if operand.index else C0_SLOT
        key = (operand.kind, operand.index)
        table = self.neg_slot if operand.neg else self.pos_slot
        slot = table.get(key)
        if slot is not None:
            return slot
        other = (self.pos_slot if operand.neg else self.neg_slot)[key]
        slot = self._vtemp()
        self._emit(BulkOp.NOT, slot, (other,))
        table[key] = slot
        return slot

    # ------------------------------------------------------------------
    def run(self) -> None:
        for index, node in enumerate(self.net.nodes):
            if index not in self.live:
                continue
            key = (NODE, index)
            only_neg = bool(self.neg_uses.get(key)) and not self.pos_uses.get(
                key
            )
            if node.fn == "xor":
                a, b = (self._resolve(op) for op in node.operands)
                slot = self._vtemp()
                if only_neg:
                    self._emit(BulkOp.XNOR, slot, (a, b))
                    self.neg_slot[key] = slot
                else:
                    self._emit(BulkOp.XOR, slot, (a, b))
                    self.pos_slot[key] = slot
                continue
            consts = [op for op in node.operands if op.kind == CONST]
            data = [op for op in node.operands if op.kind != CONST]
            if consts:
                # maj(a, b, 0/1) is AND/OR; only-negated uses take the
                # NAND/NOR variant for free through the DCC.
                control = consts[0].index
                a, b = self._resolve(data[0]), self._resolve(data[1])
                slot = self._vtemp()
                if only_neg:
                    op = BulkOp.NOR if control else BulkOp.NAND
                    self._emit(op, slot, (a, b))
                    self.neg_slot[key] = slot
                else:
                    op = BulkOp.OR if control else BulkOp.AND
                    self._emit(op, slot, (a, b))
                    self.pos_slot[key] = slot
            else:
                # True 3-operand majority; no negated-output native
                # variant exists, so negated uses NOT lazily.
                srcs = tuple(self._resolve(op) for op in node.operands)
                slot = self._vtemp()
                self._emit(BulkOp.MAJ, slot, srcs)
                self.pos_slot[key] = slot
        self._finish_output()

    def _finish_output(self) -> None:
        out = self.net.output
        if out.kind == CONST:
            src = C1_SLOT if out.index else C0_SLOT
            self._emit(BulkOp.COPY, DST_SLOT, (src,))
            return
        key = (out.kind, out.index)
        table = self.neg_slot if out.neg else self.pos_slot
        slot = table.get(key)
        if slot is None:
            # Only the opposite polarity exists; the DCC NOT writes
            # straight to the destination row.
            other = (self.pos_slot if out.neg else self.neg_slot)[key]
            self._emit(BulkOp.NOT, DST_SLOT, (other,))
            return
        if slot < self.n:
            self._emit(BulkOp.COPY, DST_SLOT, (slot,))
            return
        if any(slot in step.srcs for step in self.steps):
            # Another gate still reads this scratch row; copy out.
            self._emit(BulkOp.COPY, DST_SLOT, (slot,))
            return
        # Sole consumer: retarget the producing step at the destination.
        for idx, step in enumerate(self.steps):
            if step.dst == slot:
                self.steps[idx] = Step(step.op, DST_SLOT, step.srcs)
                return
        raise CompileError(
            "internal: output scratch slot has no producing step"
        )  # pragma: no cover


def _allocate(steps: List[Step], first: int) -> Tuple[List[Step], int]:
    """Map virtual scratch slots to a minimal set of physical ones.

    Slots from ``first`` up are virtual; lower ones (the inputs, and a
    composed op's result slots) are kept.  Linear scan over last-use
    liveness, handing out slots from ``first``; returns the steps and
    the number of slots handed out.  A scratch row freed by its final
    read may be reallocated as the destination of the *same* step for
    the TRA-based ops (their microprograms copy every operand into the
    bitwise group before the result row is written); the
    single-operand NOT/COPY keep source and destination distinct.
    """
    last_read: Dict[int, int] = {}
    for idx, step in enumerate(steps):
        for src in step.srcs:
            if src >= first:
                last_read[src] = idx
    mapping: Dict[int, int] = {}
    free: List[int] = []
    used = 0
    allocated: List[Step] = []
    for idx, step in enumerate(steps):
        srcs = tuple(
            mapping[src] if src >= first else src for src in step.srcs
        )

        def _release() -> None:
            for src in sorted({s for s in step.srcs if s >= first}):
                if last_read.get(src) == idx:
                    free.append(mapping[src])

        in_place_ok = step.op not in (BulkOp.NOT, BulkOp.COPY)
        if in_place_ok:
            _release()
        if step.dst >= first:
            if free:
                phys = free.pop()
            else:
                phys = first + used
                used += 1
            mapping[step.dst] = phys
            dst = phys
        else:
            dst = step.dst
        if not in_place_ok:
            _release()
        allocated.append(Step(step.op, dst, srcs))
    return allocated, used


_CACHE: Dict[Tuple[Expr, Optional[str]], CompiledOp] = {}


def compile_expr(expr: Expr, name: Optional[str] = None) -> CompiledOp:
    """Compile an expression to a :class:`CompiledOp`.

    Compilation is memoised on ``(expr, name)`` -- expressions are
    frozen and hashable, so repeated kernels (every plane of a
    bit-serial add, say) reuse one artefact and therefore one plan
    cache entry per row shape.
    """
    cached = _CACHE.get((expr, name))
    if cached is not None:
        return cached
    net = build_netlist(expr)
    if not net.inputs:
        raise CompileError(
            "expression must reference at least one variable; row-wide "
            "constants have no operand rows to take a shape from"
        )
    emitter = _Emitter(net)
    emitter.run()
    steps, num_temps = _allocate(emitter.steps, len(net.inputs))
    fingerprint = _fingerprint(net.inputs, steps)
    compiled = CompiledOp(
        name=name or f"expr_{fingerprint[:8]}",
        inputs=net.inputs,
        steps=tuple(steps),
        num_temps=num_temps,
        fingerprint=fingerprint,
    )
    _CACHE[(expr, name)] = compiled
    return compiled
