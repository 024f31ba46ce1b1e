"""Command microprograms for every bulk bitwise operation (Figure 8).

Each operation compiles to a short sequence of AAP/AP primitives over
the B-, C- and D-group addresses of one subarray.  The and/nand/xor
sequences are verbatim from Figure 8; or/nor/xnor follow the paper's
remark that they are obtained "by appropriately modifying the control
rows":

* ``or``  = ``and``  with the C1 (all-ones) control row,
* ``nor`` = ``nand`` with C1,
* ``xnor``= ``xor``  with C0/C1 swapped (the intermediate TRAs compute
  ``!Di | Dj`` and ``Di | !Dj`` instead of the AND forms, and the final
  TRA combines them with AND instead of OR).

``copy`` (one AAP) and ``init0``/``init1`` (an AAP from a control row)
are included because RowClone-style copies are first-class citizens of
the Ambit controller (Section 3.4).

Every bulk operation the rest of the stack executes is a
:class:`StepProgram`: a straight-line sequence of these Figure-8
programs over row slots.  The nine :class:`BulkOp`\\ s are one-step
programs; :class:`repro.compile.ops.CompiledOp` strings several steps
together through scratch rows.  One interpreter binds either kind to
rows (:meth:`StepProgram.program`) and evaluates it over row values
(:meth:`StepProgram.eval_rows`, built on :func:`apply_bulk_op`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.addressing import AmbitAddressMap
from repro.core.primitives import AAP, AP, Primitive
from repro.errors import AddressError

#: Sentinel slots of a step program, resolved when it is bound to rows.
C0_SLOT = -1   # the all-zeros control row, amap.c(0)
C1_SLOT = -2   # the all-ones control row, amap.c(1)
DST_SLOT = -3  # the caller's destination row


@dataclass(frozen=True)
class Step:
    """One Figure-8 microprogram: ``dst <- op(*srcs)`` over row slots."""

    op: "BulkOp"
    dst: int
    srcs: Tuple[int, ...]


class StepProgram:
    """The op protocol: a bulk operation as a program of Figure-8 steps.

    Every layer (plan cache, controller, batch engine, fault-tolerant
    session) handles an operation only through this
    surface: ``value`` (the label of its statistics, metrics and trace
    events), ``arity``, ``num_temps``, ``outputs``, ``steps``,
    :meth:`program`, :meth:`eval_rows` and the DCC profile the recovery
    ladder reads.

    Slots are inputs ``0..arity-1``, scratch rows
    ``arity..arity+num_temps-1``, and the sentinels :data:`C0_SLOT`,
    :data:`C1_SLOT` and :data:`DST_SLOT`.  An op computes ``outputs``
    results: the first ``outputs - 1`` scratch slots, then
    :data:`DST_SLOT`.  Every :class:`BulkOp` and every compiled
    expression has one; a composed bit-serial kernel
    (:func:`repro.compile.ops.compose`) has one per result plane.
    """

    __slots__ = ()

    #: Results of one execution (see the class docstring).
    outputs = 1

    @property
    def num_aap(self) -> int:
        return sum(AAP_COUNTS[step.op] for step in self.steps)

    @property
    def num_ap(self) -> int:
        return sum(AP_COUNTS.get(step.op, 0) for step in self.steps)

    @property
    def uses_single_dcc(self) -> bool:
        """True when some step routes through one dual-contact cell."""
        return any(step.op in SINGLE_DCC_OPS for step in self.steps)

    @property
    def uses_dual_dcc(self) -> bool:
        """True when some step needs both dual-contact cells (XOR/XNOR)."""
        return any(step.op in DUAL_DCC_OPS for step in self.steps)

    def program(
        self,
        amap: AmbitAddressMap,
        dk: int,
        srcs: Sequence[int],
        temps: Sequence[int] = (),
        dcc: int = 0,
    ) -> "Microprogram":
        """Bind slots to row addresses and emit the full microprogram.

        ``srcs`` are the operand rows in input order and ``temps`` the
        reserved scratch rows, which must be distinct from each other,
        from the operands and from the destination (steps clobber them).
        The destination may alias an operand when only the final step
        writes it, after every read; otherwise it must be distinct from
        them too.  ``dcc`` routes single-negation steps through the
        chosen dual-contact row.
        """
        srcs = tuple(srcs)
        temps = tuple(temps)
        if len(srcs) != self.arity:
            raise AddressError(
                f"{self.value} takes {self.arity} source rows; got {len(srcs)}"
            )
        if len(temps) != self.num_temps:
            raise AddressError(
                f"{self.value} needs {self.num_temps} scratch rows; "
                f"got {len(temps)}"
            )
        if temps and (
            len(set(temps)) != len(temps)
            or set(temps) & set(srcs)
            or dk in temps
        ):
            raise AddressError(
                f"{self.value}: scratch rows must be distinct from each "
                f"other, the sources and the destination"
            )
        if dk in srcs and self._writes_dst_early():
            raise AddressError(
                f"{self.value}: the destination is written before the "
                f"last step, so it must be distinct from the sources"
            )
        rows = srcs + temps

        def row(slot: int) -> int:
            if slot >= 0:
                return rows[slot]
            if slot == DST_SLOT:
                return dk
            return amap.c(0) if slot == C0_SLOT else amap.c(1)

        parts = [
            compile_op(
                amap, step.op, row(step.dst), *map(row, step.srcs), dcc=dcc
            )
            for step in self.steps
        ]
        if len(parts) == 1 and parts[0].op is self:
            return parts[0]  # a BulkOp is its own Figure-8 program
        return Microprogram(
            self, tuple(p for part in parts for p in part.primitives)
        )

    def distinct_rows(self) -> Tuple[Tuple[int, int], ...]:
        """Pairs of binding positions that must hold distinct rows.

        Positions index the binding ``(dk, *srcs, *temps)`` that
        :meth:`program` takes.  A scratch row must differ from every
        other row, a destination written before the last step from
        every source, and a COPY step's source row from its destination
        row (:func:`compile_copy`): :meth:`program` raises on any such
        pair.  Plan templates check new bindings against these pairs
        instead of compiling them (:mod:`repro.engine.plan`).
        """
        first_temp = 1 + self.arity
        pairs = {
            (position, temp)
            for temp in range(first_temp, first_temp + self.num_temps)
            for position in range(temp)
        }
        if self._writes_dst_early():
            pairs.update((0, position) for position in range(1, first_temp))

        def position(slot: int) -> int:
            return 0 if slot == DST_SLOT else 1 + slot

        for step in self.steps:
            if step.op is BulkOp.COPY and step.srcs[0] >= 0:
                pair = (position(step.dst), position(step.srcs[0]))
                pairs.add((min(pair), max(pair)))
        return tuple(sorted(pairs))

    def _writes_dst_early(self) -> bool:
        """True when a step before the last writes the destination, so
        a later step would read a clobbered operand were they one row."""
        return any(step.dst == DST_SLOT for step in self.steps[:-1])

    def eval_rows(self, sources: Sequence[np.ndarray]):
        """Interpret the steps over row values.

        Returns ``(dst_value, temp_values)``, where ``temp_values`` are
        the *final* contents of each scratch row -- the fused batch
        kernel pokes those too, so fused and per-row execution leave
        bit-identical memory behind, and a multi-output op's leading
        scratch rows hold its results.
        """
        arity = self.arity
        if len(sources) != arity:
            raise AddressError(
                f"{self.value} takes {arity} sources; got {len(sources)}"
            )
        values: List[Optional[np.ndarray]] = list(sources)
        if self.num_temps:
            values += [None] * self.num_temps
        dst = None
        for step in self.steps:
            operands = []
            for slot in step.srcs:
                operands.append(
                    values[slot] if slot >= 0 else _constant(values[0], slot)
                )
            result = apply_bulk_op(step.op, *operands)
            if step.dst == DST_SLOT:
                dst = result
            else:
                values[step.dst] = result
        return dst, tuple(values[arity:])


def _constant(sample: np.ndarray, slot: int) -> np.ndarray:
    """The C0/C1 control-row image shaped like ``sample``."""
    zeros = sample ^ sample
    return zeros if slot == C0_SLOT else ~zeros


class BulkOp(StepProgram, enum.Enum):
    """The bulk bitwise operations Ambit supports.

    Each is a one-step :class:`StepProgram` (its own Figure-8 program
    over the input slots), so the nine ops and compiled expressions take
    the same path through every layer.

    ``MAJ`` is the natural extension the paper's conclusion invites:
    triple-row activation *is* a majority gate, so exposing the raw
    3-operand majority costs the same 4 AAPs as AND/OR (the control-row
    copy is replaced by a third operand copy).  Majority is the carry
    function of a full adder, which is what makes bit-serial arithmetic
    (:mod:`repro.apps.arithmetic`) possible.
    """

    NOT = ("not", 1)
    AND = ("and", 2)
    OR = ("or", 2)
    NAND = ("nand", 2)
    NOR = ("nor", 2)
    XOR = ("xor", 2)
    XNOR = ("xnor", 2)
    COPY = ("copy", 1)
    MAJ = ("maj", 3)

    def __new__(cls, value: str, arity: int) -> "BulkOp":
        op = object.__new__(cls)
        op._value_ = value
        #: Number of source operands.
        op.arity = arity
        op.num_temps = 0
        op.steps = (Step(op, DST_SLOT, tuple(range(arity))),)
        return op

    # Members are singletons compared by identity; hash them by identity
    # too.  ``Enum`` hashes the name in Python, and every plan-template
    # lookup hashes its op.
    __hash__ = object.__hash__


#: AAP/AP cost of each Figure-8 program (Section 3.4).
AAP_COUNTS = {
    BulkOp.COPY: 1,
    BulkOp.NOT: 2,
    BulkOp.AND: 4,
    BulkOp.OR: 4,
    BulkOp.MAJ: 4,
    BulkOp.NAND: 5,
    BulkOp.NOR: 5,
    BulkOp.XOR: 5,
    BulkOp.XNOR: 5,
}
AP_COUNTS = {BulkOp.XOR: 2, BulkOp.XNOR: 2}

#: Programs whose negation routes through a single DCC row.
SINGLE_DCC_OPS = (BulkOp.NOT, BulkOp.NAND, BulkOp.NOR)

#: Programs that need *both* DCC rows (the 8-AAP xor/xnor).
DUAL_DCC_OPS = (BulkOp.XOR, BulkOp.XNOR)


def apply_bulk_op(
    op: BulkOp,
    src1: np.ndarray,
    src2: Optional[np.ndarray] = None,
    src3: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The functional effect of one Figure-8 program on packed uint64 rows.

    This is the single definition of truth: :meth:`StepProgram.eval_rows`
    applies it step by step, and the property tests pin it against the
    command-level walk bit for bit.
    """
    if op is BulkOp.NOT:
        return ~src1
    if op is BulkOp.COPY:
        return src1.copy()
    if op is BulkOp.MAJ:
        return (src1 & src2) | (src1 & src3) | (src2 & src3)
    if src2 is None:
        raise AddressError(f"{op.value} needs a second operand")
    if op is BulkOp.AND:
        return src1 & src2
    if op is BulkOp.OR:
        return src1 | src2
    if op is BulkOp.XOR:
        return src1 ^ src2
    if op is BulkOp.NAND:
        return ~(src1 & src2)
    if op is BulkOp.NOR:
        return ~(src1 | src2)
    if op is BulkOp.XNOR:
        return ~(src1 ^ src2)
    raise AddressError(f"unknown bulk operation {op}")


@dataclass(frozen=True)
class Microprogram:
    """A compiled bulk operation: the primitive sequence plus metadata."""

    op: StepProgram
    primitives: Tuple[Primitive, ...]

    @property
    def num_aap(self) -> int:
        return sum(1 for p in self.primitives if isinstance(p, AAP))

    @property
    def num_ap(self) -> int:
        return sum(1 for p in self.primitives if isinstance(p, AP))


def _two_source(
    amap: AmbitAddressMap, di: int, dj: int, dk: int, op: BulkOp
) -> None:
    for name, addr in (("src1", di), ("src2", dj)):
        if not (amap.is_d_group(addr) or amap.is_c_group(addr)):
            raise AddressError(f"{op.value}: {name} address {addr} is not a data row")
    if not amap.is_d_group(dk):
        raise AddressError(f"{op.value}: destination {dk} is not a D-group row")


def _dcc_addresses(amap: AmbitAddressMap, dcc: int) -> Tuple[int, int]:
    """(n-wordline, d-wordline) addresses of the chosen DCC row.

    DCC0 is addressed through B4 (d) / B5 (n); DCC1 through B6 (d) /
    B7 (n) (Table 1).  Both rows are functionally interchangeable for
    single-negation programs, which is what makes runtime rerouting
    around a broken n-wordline possible (see :mod:`repro.faults`).
    """
    if dcc == 0:
        return amap.b(5), amap.b(4)
    if dcc == 1:
        return amap.b(7), amap.b(6)
    raise AddressError(f"dcc route must be 0 or 1; got {dcc}")


def compile_not(
    amap: AmbitAddressMap, di: int, dk: int, dcc: int = 0
) -> Microprogram:
    """``Dk = not Di`` (Section 5.2): capture !Di in a DCC, copy it out.

    ``dcc`` selects which dual-contact row carries the negation (0 =
    DCC0, the paper's Figure 8 choice; 1 = DCC1, the spare route used
    when DCC0's n-wordline is faulty).
    """
    if not (amap.is_d_group(di) or amap.is_c_group(di)):
        raise AddressError(f"not: source address {di} is not a data row")
    if not amap.is_d_group(dk):
        raise AddressError(f"not: destination {dk} is not a D-group row")
    n_addr, d_addr = _dcc_addresses(amap, dcc)
    return Microprogram(
        BulkOp.NOT,
        (
            AAP(di, n_addr),   # DCC = !Di (via the n-wordline)
            AAP(d_addr, dk),   # Dk = DCC
        ),
    )


def compile_copy(amap: AmbitAddressMap, di: int, dk: int) -> Microprogram:
    """``Dk = Di``: a single AAP (RowClone-FPM through the controller)."""
    if di == dk:
        raise AddressError("copy: source and destination are the same row")
    return Microprogram(BulkOp.COPY, (AAP(di, dk),))


def _and_or(
    amap: AmbitAddressMap, di: int, dj: int, dk: int, op: BulkOp
) -> Microprogram:
    control = amap.c(0) if op is BulkOp.AND else amap.c(1)
    _two_source(amap, di, dj, dk, op)
    return Microprogram(
        op,
        (
            AAP(di, amap.b(0)),        # T0 = Di
            AAP(dj, amap.b(1)),        # T1 = Dj
            AAP(control, amap.b(2)),   # T2 = 0 (and) / 1 (or)
            AAP(amap.b(12), dk),       # Dk = TRA(T0, T1, T2)
        ),
    )


def compile_and(amap: AmbitAddressMap, di: int, dj: int, dk: int) -> Microprogram:
    """``Dk = Di and Dj`` (Figure 8a)."""
    return _and_or(amap, di, dj, dk, BulkOp.AND)


def compile_or(amap: AmbitAddressMap, di: int, dj: int, dk: int) -> Microprogram:
    """``Dk = Di or Dj``: the AND program with the C1 control row."""
    return _and_or(amap, di, dj, dk, BulkOp.OR)


def _nand_nor(
    amap: AmbitAddressMap, di: int, dj: int, dk: int, op: BulkOp, dcc: int = 0
) -> Microprogram:
    control = amap.c(0) if op is BulkOp.NAND else amap.c(1)
    _two_source(amap, di, dj, dk, op)
    n_addr, d_addr = _dcc_addresses(amap, dcc)
    return Microprogram(
        op,
        (
            AAP(di, amap.b(0)),            # T0 = Di
            AAP(dj, amap.b(1)),            # T1 = Dj
            AAP(control, amap.b(2)),       # T2 = 0 / 1
            AAP(amap.b(12), n_addr),       # DCC = !TRA(T0, T1, T2)
            AAP(d_addr, dk),               # Dk = DCC
        ),
    )


def compile_nand(
    amap: AmbitAddressMap, di: int, dj: int, dk: int, dcc: int = 0
) -> Microprogram:
    """``Dk = Di nand Dj`` (Figure 8b)."""
    return _nand_nor(amap, di, dj, dk, BulkOp.NAND, dcc)


def compile_nor(
    amap: AmbitAddressMap, di: int, dj: int, dk: int, dcc: int = 0
) -> Microprogram:
    """``Dk = Di nor Dj``: the NAND program with the C1 control row."""
    return _nand_nor(amap, di, dj, dk, BulkOp.NOR, dcc)


def _xor_xnor(
    amap: AmbitAddressMap, di: int, dj: int, dk: int, op: BulkOp
) -> Microprogram:
    _two_source(amap, di, dj, dk, op)
    if op is BulkOp.XOR:
        fill, final = amap.c(0), amap.c(1)   # T2=T3=0; final TRA is an OR
    else:
        fill, final = amap.c(1), amap.c(0)   # T2=T3=1; final TRA is an AND
    return Microprogram(
        op,
        (
            AAP(di, amap.b(8)),        # DCC0 = !Di, T0 = Di
            AAP(dj, amap.b(9)),        # DCC1 = !Dj, T1 = Dj
            AAP(fill, amap.b(10)),     # T2 = T3 = fill
            AP(amap.b(14)),            # T1 = TRA(DCC0, T1, T2)
            AP(amap.b(15)),            # T0 = TRA(DCC1, T0, T3)
            AAP(final, amap.b(2)),     # T2 = !fill
            AAP(amap.b(12), dk),       # Dk = TRA(T0, T1, T2)
        ),
    )


def compile_xor(amap: AmbitAddressMap, di: int, dj: int, dk: int) -> Microprogram:
    """``Dk = Di xor Dj`` (Figure 8c): (Di & !Dj) | (!Di & Dj)."""
    return _xor_xnor(amap, di, dj, dk, BulkOp.XOR)


def compile_xnor(amap: AmbitAddressMap, di: int, dj: int, dk: int) -> Microprogram:
    """``Dk = Di xnor Dj``: (Di | !Dj) & (!Di | Dj)."""
    return _xor_xnor(amap, di, dj, dk, BulkOp.XNOR)


def compile_maj(
    amap: AmbitAddressMap, di: int, dj: int, dl: int, dk: int
) -> Microprogram:
    """``Dk = MAJ(Di, Dj, Dl)``: the raw triple-row activation.

    Same structure as AND/OR (Figure 8a) with the control-row copy
    replaced by a third operand copy -- majority is what the TRA
    computes natively (Section 3.1).
    """
    for name, addr in (("src1", di), ("src2", dj), ("src3", dl)):
        if not (amap.is_d_group(addr) or amap.is_c_group(addr)):
            raise AddressError(f"maj: {name} address {addr} is not a data row")
    if not amap.is_d_group(dk):
        raise AddressError(f"maj: destination {dk} is not a D-group row")
    return Microprogram(
        BulkOp.MAJ,
        (
            AAP(di, amap.b(0)),    # T0 = Di
            AAP(dj, amap.b(1)),    # T1 = Dj
            AAP(dl, amap.b(2)),    # T2 = Dl
            AAP(amap.b(12), dk),   # Dk = MAJ(T0, T1, T2)
        ),
    )


#: Compiler dispatch: op -> callable(amap, *addresses) -> Microprogram.
COMPILERS: Dict[BulkOp, Callable[..., Microprogram]] = {
    BulkOp.NOT: compile_not,
    BulkOp.COPY: compile_copy,
    BulkOp.AND: compile_and,
    BulkOp.OR: compile_or,
    BulkOp.NAND: compile_nand,
    BulkOp.NOR: compile_nor,
    BulkOp.XOR: compile_xor,
    BulkOp.XNOR: compile_xnor,
    BulkOp.MAJ: compile_maj,
}


def compile_op(
    amap: AmbitAddressMap,
    op: BulkOp,
    dk: int,
    di: int,
    dj: Optional[int] = None,
    dl: Optional[int] = None,
    dcc: int = 0,
) -> Microprogram:
    """Compile any bulk operation to its microprogram.

    Argument order follows the ISA (Section 5.4.1): destination first.
    ``dcc`` routes single-negation programs (not/nand/nor) through the
    chosen dual-contact row; operations that use no DCC, or both
    (xor/xnor), ignore it.
    """
    if op.arity == 1:
        if dj is not None or dl is not None:
            raise AddressError(f"{op.value} takes one source operand")
        if op is BulkOp.NOT:
            return compile_not(amap, di, dk, dcc)
        return COMPILERS[op](amap, di, dk)
    if op.arity == 3:
        if dj is None or dl is None:
            raise AddressError(f"{op.value} takes three source operands")
        return compile_maj(amap, di, dj, dl, dk)
    if dj is None or dl is not None:
        raise AddressError(f"{op.value} takes two source operands")
    if op in (BulkOp.NAND, BulkOp.NOR):
        return _nand_nor(amap, di, dj, dk, op, dcc)
    return COMPILERS[op](amap, di, dj, dk)


def compile_reduction(
    amap: AmbitAddressMap,
    op: BulkOp,
    sources: Tuple[int, ...],
    dk: int,
    optimize: bool = True,
) -> Microprogram:
    """AND/OR-reduce several rows into ``dk``.

    ``optimize=True`` applies the dead-store elimination Section 5.2
    alludes to: the running accumulator stays in the designated row T0
    across steps (a TRA's restore already leaves the result in T0), so
    each additional source costs 2 AAPs + 1 AP instead of a full 4-AAP
    operation plus accumulator re-copy.  ``optimize=False`` emits the
    naive chain (each step a full Figure 8a/or program through a scratch
    accumulator in ``dk``), which is what the ablation benchmark
    compares against.
    """
    if op not in (BulkOp.AND, BulkOp.OR):
        raise AddressError(f"reductions support and/or; got {op.value}")
    if len(sources) < 2:
        raise AddressError("a reduction needs at least two sources")
    if not amap.is_d_group(dk):
        raise AddressError(f"reduction destination {dk} is not a D-group row")
    control = amap.c(0) if op is BulkOp.AND else amap.c(1)
    primitives: list = []
    if optimize:
        primitives.append(AAP(sources[0], amap.b(0)))      # T0 = acc
        for i, src in enumerate(sources[1:]):
            last = i == len(sources) - 2
            primitives.append(AAP(src, amap.b(1)))         # T1 = src
            primitives.append(AAP(control, amap.b(2)))     # T2 = ctl
            if last:
                primitives.append(AAP(amap.b(12), dk))     # Dk = TRA
            else:
                primitives.append(AP(amap.b(12)))          # T0 = TRA
    else:
        acc = sources[0]
        for src in sources[1:]:
            step = COMPILERS[op](amap, acc, src, dk)
            primitives.extend(step.primitives)
            acc = dk
    return Microprogram(op, tuple(primitives))


def compile_xor_minimal(
    amap: AmbitAddressMap,
    di: int,
    dj: int,
    dk: int,
    scratch: Tuple[int, int] = None,
    dcc: int = 0,
    op: BulkOp = None,
) -> Tuple[Microprogram, ...]:
    """XOR on a *minimal* Ambit B-group (the ablation of Section 5.1).

    The paper's B-group spends extra area (4 designated rows, 2 DCC
    rows, dual-fanout addresses B8-B11) specifically so xor/xnor need
    few copies.  A minimal Ambit -- 3 designated rows, 1 DCC row, no
    fanout addresses -- must compose xor as
    ``(Di and not Dj) or (not Di and Dj)`` from whole not/and/or
    operations through two scratch data rows.  Returns the program
    sequence; the ablation benchmark compares its cost against
    :func:`compile_xor`.

    ``dcc`` routes the NOT steps through the chosen dual-contact row --
    the fault layer uses this as the degraded xor/xnor path when one of
    the two DCC n-wordlines is broken (the paper's 8-AAP xor needs both).
    ``op=BulkOp.XNOR`` composes xnor instead (an extra trailing NOT
    through a scratch row): ``Dk = !(Di ^ Dj)``.
    """
    if scratch is None:
        scratch = (amap.d(amap.data_rows - 1), amap.d(amap.data_rows - 2))
    s0, s1 = scratch
    if len({di, dj, dk, s0, s1}) != 5:
        raise AddressError("xor_minimal needs five distinct rows")
    return tuple(
        compile_op(amap, step.op, step.dst, *step.srcs, dcc=dcc)
        for step in xor_minimal_steps(op, di, dj, dk, s0, s1)
    )


def xor_minimal_steps(
    op: BulkOp, di: int, dj: int, dk: int, s0: int, s1: int
) -> List[Step]:
    """The steps of :func:`compile_xor_minimal`, over rows or slots.

    ``Dk = (Di and not Dj) or (not Di and Dj)`` through the scratch
    ``s0``/``s1``; ``op=BulkOp.XNOR`` negates the result.  The fault
    layer rewrites the XOR/XNOR steps of any program with these when
    one DCC row is dead.  ``dk`` is written only by the last step, so
    it may alias ``di`` or ``dj``.
    """
    steps = [
        Step(BulkOp.NOT, s0, (dj,)),        # s0 = !Dj
        Step(BulkOp.AND, s0, (di, s0)),     # s0 = Di & !Dj
        Step(BulkOp.NOT, s1, (di,)),        # s1 = !Di
        Step(BulkOp.AND, s1, (dj, s1)),     # s1 = !Di & Dj
    ]
    if op is BulkOp.XNOR:
        steps.append(Step(BulkOp.OR, s0, (s0, s1)))   # s0 = Di ^ Dj
        steps.append(Step(BulkOp.NOT, dk, (s0,)))     # Dk = !(Di ^ Dj)
    else:
        steps.append(Step(BulkOp.OR, dk, (s0, s1)))   # Dk = s0 | s1
    return steps
