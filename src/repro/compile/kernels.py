"""Bit-serial arithmetic kernels built from compiled operations.

Ambit rows are bit-*parallel* but carry no arithmetic; the classic
in-DRAM recipe (SIMDRAM, see PAPERS.md) is therefore **bit-serial**:
an N-bit integer per element is stored as N bitvector *planes* (LSB
first), and arithmetic walks the planes with full-adder boolean steps.
Every step is a :class:`~repro.compile.ops.CompiledOp`, so the work
runs in-DRAM, hits the plan cache, and is accounted per-AAP exactly
like the hand-written ops.

As SIMDRAM issues a whole n-bit operation as one μProgram, each kernel
but :func:`popcount` is one op over all its planes:
:func:`~repro.compile.ops.compose` strings the per-plane steps
(``SUM3``/``CARRY3`` and so on) into one multi-output op per kernel and
width, with the ripple value in scratch rows, and the kernel runs it as
one ``BitVector.op_into``.  Its steps, and so its cost, are exactly
those of the plane-by-plane ripple.  Its columns must be co-located
(allocated with ``like=``), since the op stages no operand.  The
initial carry (or running compare) is a row zero-filled through the
backdoor, which issues no DRAM command; ``sub`` and ``compare_eq``
invert it with the op's first step.

:class:`BitColumn` is the column type (a list of equal-shape
``BitVector`` planes); :func:`add`, :func:`sub`, :func:`compare_lt`,
:func:`compare_eq`, :func:`popcount` and :func:`select` are the
kernels.  The module only duck-types against ``BitVector`` (``compute``,
``op_into``, ``free``, ``system`` ...), so it imports nothing from
``repro.apps``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.compile.ir import Var, maj, mux
from repro.compile.ops import CompiledOp, compile_expr, compose
from repro.core.microprograms import BulkOp
from repro.errors import AllocationError, CompileError

_A, _B, _C = Var("a"), Var("b"), Var("c")

#: Full-adder planes: sum and carry of three operands.
SUM3 = compile_expr(_A ^ _B ^ _C, name="sum3")
CARRY3 = compile_expr(maj(_A, _B, _C), name="carry3")
#: Two's-complement subtraction planes (``a + ~b + 1``).
DIFF3 = compile_expr(_A ^ ~_B ^ _C, name="diff3")
BORROW3 = compile_expr(maj(_A, ~_B, _C), name="borrow3")
#: LSB-to-MSB comparator folds.
LT_STEP = compile_expr(mux(_A ^ _B, _B, _C), name="lt_step")
EQ_STEP = compile_expr(_C & ~(_A ^ _B), name="eq_step")
#: Half-adder planes for the popcount ripple.
XOR2 = compile_expr(_A ^ _B, name="xor2")
AND2 = compile_expr(_A & _B, name="and2")
#: Masked select.
MUX = compile_expr(mux(Var("m"), _A, _B), name="mux")


def _zeros_like(vec):
    return vec.system.bitvector(vec.nbits, like=vec)


def _names(prefix: str, width: int) -> List[str]:
    return [f"{prefix}{k}" for k in range(width)]


def _call(op: CompiledOp, result: str, **args: str):
    """One :func:`compose` call of ``op``, its inputs bound by name."""
    return op, tuple(args[name] for name in op.inputs), result


def _ripple_op(name: str, sum_op: CompiledOp, carry_op: CompiledOp,
               width: int, invert: bool) -> CompiledOp:
    """Ripple-carry planes over inputs ``a*``, ``b*`` and a zero row
    ``z``, whose inverse is the initial carry when ``invert``."""
    a, b, total = _names("a", width), _names("b", width), _names("s", width)
    calls = [(BulkOp.NOT, ("z",), "c0")] if invert else []
    carry = "c0" if invert else "z"
    for k in range(width):
        calls.append(_call(sum_op, total[k], a=a[k], b=b[k], c=carry))
        # The last carry-out is computed, as the plane-by-plane ripple
        # computes it, and dropped: the arithmetic is modular.
        calls.append(_call(carry_op, f"c{k + 1}", a=a[k], b=b[k], c=carry))
        carry = f"c{k + 1}"
    return compose(f"{name}{width}", [*a, *b, "z"], calls, total)


def _fold_op(name: str, step: CompiledOp, width: int,
             invert: bool) -> CompiledOp:
    """LSB-to-MSB folds of ``step`` over inputs ``a*`` and ``b*`` from a
    zero row ``z`` (inverted first when ``invert``) into one result."""
    a, b = _names("a", width), _names("b", width)
    calls = [(BulkOp.NOT, ("z",), "r0")] if invert else []
    result = "r0" if invert else "z"
    for k in range(width):
        calls.append(_call(step, f"r{k + 1}", a=a[k], b=b[k], c=result))
        result = f"r{k + 1}"
    return compose(f"{name}{width}", [*a, *b, "z"], calls, [result])


# Kernel ops, built once per width.
@functools.lru_cache(maxsize=None)
def add_op(width: int) -> CompiledOp:
    return _ripple_op("add", SUM3, CARRY3, width, invert=False)


@functools.lru_cache(maxsize=None)
def sub_op(width: int) -> CompiledOp:
    return _ripple_op("sub", DIFF3, BORROW3, width, invert=True)


@functools.lru_cache(maxsize=None)
def lt_op(width: int) -> CompiledOp:
    return _fold_op("lt", LT_STEP, width, invert=False)


@functools.lru_cache(maxsize=None)
def eq_op(width: int) -> CompiledOp:
    return _fold_op("eq", EQ_STEP, width, invert=True)


@functools.lru_cache(maxsize=None)
def select_op(width: int) -> CompiledOp:
    a, b, chosen = _names("a", width), _names("b", width), _names("s", width)
    calls = [
        _call(MUX, chosen[k], m="m", a=a[k], b=b[k]) for k in range(width)
    ]
    return compose(f"select{width}", [*a, *b, "m"], calls, chosen)


def _run(op: CompiledOp, sources: Sequence[object],
         zero: bool = False) -> List[object]:
    """Run a kernel op as one ``op_into``; returns its result vectors.

    The results are allocated co-located with the first source; with
    ``zero``, a zero row so allocated is the op's last source, freed
    afterwards.
    """
    like = sources[0]
    if any(v.nbits != like.nbits for v in sources):
        raise AllocationError("bitvector operands must have equal sizes")
    leased = [_zeros_like(like)] if zero else []
    results = [_zeros_like(like) for _ in range(op.outputs)]
    try:
        like.op_into(op, results[-1], *sources[1:], *leased,
                     outs=results[:-1])
    except BaseException:
        for vector in results:
            vector.free()
        raise
    finally:
        for vector in leased:
            vector.free()
    return results


@dataclass
class BitColumn:
    """A column of N-bit integers as bitvector planes, LSB first."""

    planes: List[object]

    def __post_init__(self):
        if not self.planes:
            raise CompileError("a BitColumn needs at least one plane")
        nbits = self.planes[0].nbits
        if any(p.nbits != nbits for p in self.planes):
            raise CompileError("all planes of a column must have equal nbits")

    @property
    def width(self) -> int:
        """Bits per element (number of planes)."""
        return len(self.planes)

    @property
    def nbits(self) -> int:
        """Elements per column (bits per plane)."""
        return self.planes[0].nbits

    # ------------------------------------------------------------------
    @classmethod
    def from_ints(cls, system, values: Sequence[int], bits: int, like=None):
        """Pack unsigned integers into ``bits`` planes on the device."""
        values = np.asarray(values, dtype=np.uint64)
        if bits < 1:
            raise CompileError("columns need at least one bit plane")
        if values.size and int(values.max()) >> bits:
            raise CompileError(
                f"value {int(values.max())} does not fit in {bits} bits"
            )
        planes = []
        for k in range(bits):
            plane_bits = ((values >> np.uint64(k)) & np.uint64(1)).astype(bool)
            plane = system.from_bits(plane_bits, like=like)
            if like is None:
                like = plane  # co-locate the rest of the column
            planes.append(plane)
        return cls(planes)

    def to_ints(self) -> np.ndarray:
        """Read the column back as a ``uint64`` array."""
        out = np.zeros(self.nbits, dtype=np.uint64)
        for k, plane in enumerate(self.planes):
            out |= plane.to_bits().astype(np.uint64) << np.uint64(k)
        return out

    def free(self) -> None:
        """Return every plane's rows to the driver's free pool."""
        for plane in self.planes:
            plane.free()


def _check_pair(a: BitColumn, b: BitColumn) -> None:
    if a.width != b.width or a.nbits != b.nbits:
        raise CompileError(
            f"columns must match: {a.width}x{a.nbits} vs {b.width}x{b.nbits}"
        )


def add(a: BitColumn, b: BitColumn) -> BitColumn:
    """Element-wise ``(a + b) mod 2**width``, bit-serially in DRAM."""
    _check_pair(a, b)
    return BitColumn(_run(add_op(a.width), a.planes + b.planes, zero=True))


def sub(a: BitColumn, b: BitColumn) -> BitColumn:
    """Element-wise ``(a - b) mod 2**width`` via ``a + ~b + 1``."""
    _check_pair(a, b)
    return BitColumn(_run(sub_op(a.width), a.planes + b.planes, zero=True))


def compare_lt(a: BitColumn, b: BitColumn):
    """Element-wise unsigned ``a < b`` as a single mask vector.

    Walks LSB to MSB keeping ``lt = (a_k != b_k) ? b_k : lt`` so the
    most significant differing bit decides.
    """
    _check_pair(a, b)
    (mask,) = _run(lt_op(a.width), a.planes + b.planes, zero=True)
    return mask


def compare_eq(a: BitColumn, b: BitColumn):
    """Element-wise ``a == b`` as a single mask vector."""
    _check_pair(a, b)
    (mask,) = _run(eq_op(a.width), a.planes + b.planes, zero=True)
    return mask


def popcount(vectors: Sequence[object]) -> BitColumn:
    """Per-bit-position count of set bits across ``vectors``.

    Returns a :class:`BitColumn` of width ``ceil(log2(N + 1))`` whose
    element ``i`` is the number of input vectors with bit ``i`` set --
    a vertical popcount by half-adder ripple increments.

    Unlike the other kernels it runs step by step, one ``compute`` per
    half-adder plane: its inputs need not share a subarray, and the
    staging one op would do for them differs from the steps', so it
    would change the modelled cost.
    """
    vectors = list(vectors)
    if not vectors:
        raise CompileError("popcount needs at least one vector")
    width = max(1, math.ceil(math.log2(len(vectors) + 1)))
    counters = [_zeros_like(vectors[0]) for _ in range(width)]
    for vec in vectors:
        carry = vec
        for i, counter in enumerate(counters):
            bit = counter.compute(XOR2, a=counter, b=carry)
            next_carry = counter.compute(AND2, a=counter, b=carry)
            if carry is not vec:
                carry.free()
            counter.free()
            counters[i] = bit
            carry = next_carry
        carry.free()  # width covers N, so the top carry is always zero
    return BitColumn(counters)


def select(mask, a: BitColumn, b: BitColumn) -> BitColumn:
    """Element-wise masked select: plane-wise ``mask ? a : b``."""
    _check_pair(a, b)
    return BitColumn(_run(select_op(a.width), [*a.planes, *b.planes, mask]))
