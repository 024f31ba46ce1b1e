"""Device-backed bitvectors: the application-facing Ambit API.

The accelerator API of Section 5.4.2: applications allocate bitvectors
through the driver (which co-locates co-operating vectors subarray by
subarray) and combine them with bulk bitwise operations that execute
entirely inside the DRAM device.

:class:`AmbitBitSystem` bundles a device and its driver;
:class:`BitVector` provides numpy-like operators on top.  Every
operation runs through the real command-level model, so results are
bit-exact and the device's timing/energy accounting reflects the work.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.device import AmbitDevice
from repro.core.driver import AmbitDriver, BitVectorHandle
from repro.core.microprograms import BulkOp
from repro.errors import AllocationError, CompileError
from repro.dram.geometry import DramGeometry


class AmbitBitSystem:
    """An Ambit device plus driver, ready to host bitvectors."""

    def __init__(
        self,
        device: Optional[AmbitDevice] = None,
        geometry: Optional[DramGeometry] = None,
    ):
        if device is not None and geometry is not None:
            raise AllocationError("pass either a device or a geometry, not both")
        self.device = device if device is not None else AmbitDevice(geometry=geometry)
        self.driver = AmbitDriver(self.device)

    # ------------------------------------------------------------------
    def bitvector(
        self, nbits: int, like: Optional["BitVector"] = None
    ) -> "BitVector":
        """Allocate a zeroed bitvector (optionally co-located with ``like``)."""
        vector = self._allocate(nbits, like)
        zero = np.zeros(self.device.row_bits // 64, dtype=np.uint64)
        for loc in vector.handle.rows:
            self.device.write_row(loc, zero)
        return vector

    def from_bits(
        self, bits: np.ndarray, like: Optional["BitVector"] = None
    ) -> "BitVector":
        """Allocate and initialise a bitvector from a boolean array."""
        bits = np.asarray(bits, dtype=bool)
        vector = self._allocate(bits.size, like)
        vector.set_bits(bits)
        return vector

    def _allocate(self, nbits: int, like: Optional["BitVector"]) -> "BitVector":
        handle = self.driver.allocate(
            nbits, like=None if like is None else like.handle
        )
        return BitVector(self, handle)

    @property
    def elapsed_ns(self) -> float:
        return self.device.elapsed_ns


class BitVector:
    """A bitvector living in Ambit DRAM rows.

    Supports ``&``, ``|``, ``^``, ``~`` (allocating the result
    co-located with the left operand).  Bits beyond ``nbits`` in the
    final row are kept zero: :meth:`op_into` clears them when the op
    maps all-zero inputs to ones.
    """

    def __init__(self, system: AmbitBitSystem, handle: BitVectorHandle):
        self.system = system
        self.handle = handle

    # ------------------------------------------------------------------
    @property
    def nbits(self) -> int:
        return self.handle.nbits

    @property
    def device(self) -> AmbitDevice:
        return self.system.device

    # ------------------------------------------------------------------
    # Host data movement
    # ------------------------------------------------------------------
    def set_bits(self, bits: np.ndarray) -> None:
        """Write a boolean array into the vector (row-padded with zeros)."""
        bits = np.asarray(bits, dtype=bool)
        if bits.size != self.nbits:
            raise AllocationError(
                f"bit array has {bits.size} bits; vector holds {self.nbits}"
            )
        row_bits = self.device.row_bits
        padded = np.zeros(self.handle.num_rows * row_bits, dtype=bool)
        padded[: self.nbits] = bits
        for i, loc in enumerate(self.handle.rows):
            chunk = padded[i * row_bits : (i + 1) * row_bits]
            packed = np.packbits(chunk, bitorder="little").view(np.uint64)
            self.device.write_row(loc, packed)

    def to_bits(self) -> np.ndarray:
        """Read the vector back as a boolean array of ``nbits``."""
        row_bits = self.device.row_bits
        out = np.zeros(self.handle.num_rows * row_bits, dtype=bool)
        for i, loc in enumerate(self.handle.rows):
            packed = self.device.read_row(loc)
            bits = np.unpackbits(packed.view(np.uint8), bitorder="little")
            out[i * row_bits : (i + 1) * row_bits] = bits.astype(bool)
        return out[: self.nbits]

    def popcount(self) -> int:
        """Count set bits (performed by the CPU, as in the paper)."""
        return int(self.to_bits().sum())

    # ------------------------------------------------------------------
    # Bulk bitwise operations (in-DRAM)
    # ------------------------------------------------------------------
    def op_into(
        self,
        op,
        dst: "BitVector",
        *others: Optional["BitVector"],
        outs: Sequence["BitVector"] = (),
    ) -> "BitVector":
        """``dst = op(self, *others)`` chunk by chunk inside DRAM.

        ``op`` is one of the nine :class:`BulkOp`\\ s or a compiled op
        (:class:`repro.compile.ops.CompiledOp`); ``None`` operands are
        dropped.  An op with ``outputs > 1`` results (a composed
        bit-serial kernel, :func:`repro.compile.ops.compose`) writes its
        first ``outputs - 1`` into ``outs``, which bind its leading
        scratch slots, and its last into ``dst``.  The rest of a
        compiled op's scratch rows are leased from the driver
        chunk-aligned with the destination.

        Chunks not co-located with the destination are staged through
        scratch rows (the driver's slow path); co-located layouts --
        anything allocated with ``like=`` -- run pure RowClone-FPM.  A
        multi-output op stages nothing: each of its operands must be
        co-located, else :class:`AllocationError` before anything runs.

        Co-located chunks execute through the batch engine
        (:mod:`repro.engine`, or the sharded device when one wraps it):
        one fused kernel per (bank, subarray) group, issued round-robin
        across banks, with identical results and identical
        timing/energy accounting.  An attached tracer sees the same
        events from them as from the per-row walk.  Bits beyond
        ``dst.nbits`` are cleared again in every result the op maps
        zeros to ones in.
        """
        vectors = [self] + [v for v in others if v is not None]
        outs = list(outs)
        if len(outs) != op.outputs - 1:
            raise AllocationError(
                f"{op.value} has {op.outputs} results: pass all but the "
                f"last as outs= ({len(outs)} given) and the last as dst"
            )
        results = outs + [dst]
        for v in vectors + results:
            if v.handle.num_rows != self.handle.num_rows:
                raise AllocationError("bitvector operands must have equal row counts")
        driver = self.system.driver
        device = self.device
        with driver.temp_rows(dst.handle, op.num_temps - len(outs)) as leased:
            temp_handles = [v.handle for v in outs] + leased
            dst_rows = []
            src_cols = [[] for _ in vectors]
            temp_cols = [[] for _ in temp_handles]
            for i in range(self.handle.num_rows):
                d = dst.handle.rows[i]
                srcs = [v.handle.rows[i] for v in vectors]
                temps = [h.rows[i] for h in temp_handles]
                strays = [
                    k for k, s in enumerate(srcs)
                    if (s.bank, s.subarray) != (d.bank, d.subarray)
                ]
                if not strays:
                    # Batched path: fuse co-located chunks.
                    dst_rows.append(d)
                    for col, s in zip(src_cols, srcs):
                        col.append(s)
                    for col, t in zip(temp_cols, temps):
                        col.append(t)
                    continue
                if outs or len(strays) > 2:
                    # A multi-output op stages nothing, so it raises
                    # before any chunk runs.
                    limit = (
                        "a multi-output op stages none" if outs
                        else "only 2 scratch rows exist"
                    )
                    raise AllocationError(
                        f"chunk {i} has {len(strays)} cross-subarray "
                        f"operands; {limit} -- allocate operands with "
                        f"like= to co-locate them"
                    )
                for scratch, k in enumerate(strays):
                    srcs[k] = driver.stage_for(
                        srcs[k], d, scratch_index=scratch
                    )
                device.bbop_row(op, d, *srcs, temps=temps)
            if dst_rows:
                device.run_rows(op, dst_rows, *src_cols, temps=temp_cols)
        if dst.nbits % device.row_bits:
            pad, pads = op.eval_rows([np.zeros(1, dtype=np.uint64)] * op.arity)
            for vector, value in zip(results, [*pads[:len(outs)], pad]):
                if int(value[0]):
                    vector._clear_padding()
        return dst

    def _binary(self, op: BulkOp, other: "BitVector") -> "BitVector":
        dst = self.system.bitvector(self.nbits, like=self)
        return self.op_into(op, dst, other)

    def __and__(self, other: "BitVector") -> "BitVector":
        return self._binary(BulkOp.AND, other)

    def __or__(self, other: "BitVector") -> "BitVector":
        return self._binary(BulkOp.OR, other)

    def __xor__(self, other: "BitVector") -> "BitVector":
        return self._binary(BulkOp.XOR, other)

    def __invert__(self) -> "BitVector":
        dst = self.system.bitvector(self.nbits, like=self)
        return self.op_into(BulkOp.NOT, dst)

    def nand(self, other: "BitVector") -> "BitVector":
        """``~(self & other)`` via the Figure 8b microprogram."""
        return self._binary(BulkOp.NAND, other)

    def nor(self, other: "BitVector") -> "BitVector":
        """``~(self | other)`` (the NAND program with C1)."""
        return self._binary(BulkOp.NOR, other)

    def xnor(self, other: "BitVector") -> "BitVector":
        """``~(self ^ other)`` (the XOR program with swapped control rows)."""
        return self._binary(BulkOp.XNOR, other)

    # ------------------------------------------------------------------
    # Compiled (synthesized) operations
    # ------------------------------------------------------------------
    def compute(self, op, **bindings) -> "BitVector":
        """Evaluate a compiled boolean expression over bitvectors.

        ``op`` may be an expression string (``"maj(a, b, c) ^ ~a"``), a
        :class:`repro.compile.ir.Expr`, or a pre-compiled
        :class:`repro.compile.ops.CompiledOp`.  Keyword arguments bind
        the expression's variables to bitvectors; when exactly one
        variable is left unbound it binds to ``self``.  Returns a fresh
        vector co-located with ``self`` holding the result.

        Execution runs entirely in-DRAM through the synthesized
        MAJ/NOT microprogram, by :meth:`op_into` like any other op.
        """
        from repro.compile.ir import Expr, parse_expr
        from repro.compile.ops import CompiledOp, compile_expr

        if isinstance(op, str):
            op = parse_expr(op)
        if isinstance(op, Expr):
            cop = compile_expr(op)
        elif isinstance(op, CompiledOp):
            cop = op
        else:
            raise CompileError(
                f"compute takes an expression string, Expr, or "
                f"CompiledOp; got {op!r}"
            )
        extra = sorted(set(bindings) - set(cop.inputs))
        if extra:
            raise CompileError(
                f"unknown inputs {extra}; {cop.value} takes {list(cop.inputs)}"
            )
        unbound = [name for name in cop.inputs if name not in bindings]
        if len(unbound) == 1:
            bindings[unbound[0]] = self
        elif unbound:
            raise CompileError(
                f"unbound inputs {unbound} (with more than one free "
                f"variable every input must be bound by keyword)"
            )
        vectors = [bindings[name] for name in cop.inputs]
        for v in vectors:
            if v.nbits != self.nbits or v.handle.num_rows != self.handle.num_rows:
                raise AllocationError(
                    "bitvector operands must have equal sizes"
                )

        dst = self.system.bitvector(self.nbits, like=self)
        return vectors[0].op_into(cop, dst, *vectors[1:])

    def copy(self) -> "BitVector":
        """Duplicate the vector (RowClone copies, co-located)."""
        dst = self.system.bitvector(self.nbits, like=self)
        return self.op_into(BulkOp.COPY, dst)

    def free(self) -> None:
        """Return the vector's rows to the driver's free pool."""
        self.system.driver.free(self.handle)

    # ------------------------------------------------------------------
    def _clear_padding(self) -> None:
        row_bits = self.device.row_bits
        tail_bits = self.nbits % row_bits
        if tail_bits == 0:
            return
        loc = self.handle.rows[-1]
        packed = self.device.read_row(loc)
        bits = np.unpackbits(packed.view(np.uint8), bitorder="little")
        bits[tail_bits:] = 0
        self.device.write_row(
            loc, np.packbits(bits, bitorder="little").view(np.uint64)
        )
