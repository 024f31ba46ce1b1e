"""Golden command-sequence regression tests for compiled operations.

The synthesized microprograms for AND, XOR, MUX, and the full-adder
carry are pinned byte-for-byte to checked-in traces, exactly like the
fixed-op goldens.  Two extra assertions pin the headline parity claim:
the compiler's AND and XOR command streams are *identical* to the
hand-written native microprograms -- not merely equivalent.
"""

import pytest

from repro.core.microprograms import BulkOp
from tests.golden.regen import (
    COMPILED_CASES,
    compiled_path,
    compiled_trace_text,
    golden_device,
    golden_path,
    golden_trace_text,
)

REGEN_HINT = (
    "compiled command sequence drifted from tests/golden/; if this "
    "change is intentional, regenerate with `PYTHONPATH=src python -m "
    "tests.golden.regen` and commit the diff"
)


@pytest.mark.parametrize(
    "name, expr_text", COMPILED_CASES, ids=lambda v: str(v)
)
def test_compiled_golden_command_sequence(name, expr_text):
    """Byte-for-byte equality against the checked-in golden trace."""
    golden = compiled_path(name).read_text()
    assert compiled_trace_text(name, expr_text) == golden, (
        f"{name}: {REGEN_HINT}"
    )


def test_compiled_goldens_are_distinct():
    texts = {
        name: compiled_path(name).read_text()
        for name, _ in COMPILED_CASES
    }
    assert len(set(texts.values())) == len(texts)


class TestParityWithHandWrittenPrograms:
    """The compiler reaches the native command stream, byte for byte.

    A 1.0x compiled/native latency ratio by construction, pinned as
    trace equality and, since trace text carries no times, as equal
    modelled time.
    """

    def test_compiled_and_is_the_native_and(self):
        assert (
            compiled_path("compiled_and").read_text()
            == golden_path(BulkOp.AND).read_text()
        )

    def test_compiled_xor_is_the_native_xor(self):
        assert (
            compiled_path("compiled_xor").read_text()
            == golden_path(BulkOp.XOR).read_text()
        )

    @pytest.mark.parametrize(
        "op, expr_text, ns",
        [(BulkOp.AND, "a & b", 196), (BulkOp.XOR, "a ^ b", 335)],
        ids=lambda v: getattr(v, "value", str(v)),
    )
    def test_compiled_op_takes_the_native_time(self, op, expr_text, ns):
        native, compiled = golden_device(), golden_device()
        golden_trace_text(op, native)
        compiled_trace_text(f"compiled_{op.value}", expr_text, compiled)
        assert native.elapsed_ns == compiled.elapsed_ns == ns
