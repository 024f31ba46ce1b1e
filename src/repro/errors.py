"""Exception hierarchy for the Ambit reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """A configuration object is internally inconsistent."""


class DramProtocolError(ReproError):
    """An illegal DRAM command sequence was issued.

    The DRAM model enforces the command protocol of a real device: a bank
    must be precharged before a fresh activation performs charge sharing,
    READ/WRITE require an open row, and so on.  Violations raise this
    error rather than silently corrupting state.
    """


class AddressError(ReproError):
    """A row/column address is out of range or in the wrong address group."""


class AlignmentError(ReproError):
    """A ``bbop`` operand violates Ambit's row-alignment requirements.

    Section 5.4.3 of the paper: Ambit operations are row-wide, so the
    source and destination must be row-aligned and the size a multiple of
    the DRAM row size.  Misaligned requests must fall back to the CPU.
    """


class AllocationError(ReproError):
    """The subarray-aware driver could not place a bitvector (Section 5.4.2)."""


class CompileError(ReproError):
    """The MAJ/NOT operation compiler rejected an expression.

    Raised by :mod:`repro.compile` for malformed expressions, unbound
    variables, invalid row assignments, or surface syntax outside the
    whitelisted grammar of ``repro compile --expr``.
    """


class EccError(ReproError):
    """An uncorrectable error was detected by the TMR ECC scheme (Section 5.4.5)."""


class SimulationError(ReproError):
    """The system-level cost simulator was driven with inconsistent inputs."""


class FaultError(ReproError):
    """The fault-recovery layer could not restore correct operation.

    Raised by :mod:`repro.faults` when a detected fault survives the
    full recovery ladder (retry, spare-row remap, DCC reroute) -- e.g.
    a subarray is out of spare rows, or a row stays wrong after repair.
    See ``docs/RELIABILITY.md``.
    """
