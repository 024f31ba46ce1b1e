"""Batched-engine runs round-trip through the command-trace format.

The fused path of :class:`~repro.engine.batch.BatchEngine` computes a
whole (bank, subarray) group in one numpy operation but still charges
the *exact* command schedule to the chip trace.  That claim is only
honest if the trace is replayable: ``dump_trace_with_data`` of a fused
multi-row batch, parsed and replayed on a fresh device, must reproduce
every cell bit-for-bit -- including the destination rows the fused
kernel wrote without ever issuing per-word WRITEs itself.
"""

import numpy as np
import pytest

from repro.core.device import AmbitDevice
from repro.core.microprograms import BulkOp
from repro.dram.chip import RowLocation
from repro.dram.geometry import small_test_geometry
from repro.dram.trace_io import dump_trace_with_data, parse_trace, replay_trace

GEO = small_test_geometry(rows=32, row_bytes=64, banks=4, subarrays_per_bank=2)
DATA_ROWS = GEO.subarray.data_rows
WORDS = GEO.subarray.words_per_row

SPREAD = {(0, 0): 3, (0, 1): 2, (1, 0): 2, (3, 1): 3}


def _make_device(seed=None):
    device = AmbitDevice(geometry=GEO)
    if seed is not None:
        rng = np.random.default_rng(seed)
        for bank in range(GEO.banks):
            for sub in range(GEO.subarrays_per_bank):
                for addr in range(DATA_ROWS):
                    device.write_row(
                        RowLocation(bank, sub, addr),
                        rng.integers(0, 2**63, size=WORDS, dtype=np.uint64),
                    )
    return device


def _rows(arity):
    dst, src1, src2, src3 = [], [], [], []
    for (bank, sub), count in SPREAD.items():
        for j in range(count):
            dst.append(RowLocation(bank, sub, 3 * j))
            src1.append(RowLocation(bank, sub, 3 * j + 1))
            src2.append(RowLocation(bank, sub, 3 * j + 2))
            # Hazard-free third operand so MAJ stays on the fused path.
            src3.append(RowLocation(bank, sub, 9 + j))
    return (
        dst,
        src1,
        src2 if arity >= 2 else None,
        src3 if arity >= 3 else None,
    )


def _data_state(device):
    return {
        (b, s, r): tuple(device.read_row(RowLocation(b, s, r)).tolist())
        for b in range(GEO.banks)
        for s in range(GEO.subarrays_per_bank)
        for r in range(DATA_ROWS)
    }


@pytest.mark.parametrize("op", tuple(BulkOp), ids=lambda op: op.value)
def test_fused_batch_trace_replays_bit_exact(op):
    original = _make_device(seed=13)
    baseline_state = _data_state(original)

    dst, src1, src2, src3 = _rows(op.arity)
    with original.chip.trace.capture() as issued:
        report = original.engine.run_rows(op, dst, src1, src2, src3)
    assert report.fused_rows > 0, "batch must exercise the fused path"

    text = dump_trace_with_data(issued)

    # Replay onto a fresh device holding the same pre-batch data.
    replayed = _make_device(seed=13)
    assert _data_state(replayed) == baseline_state
    with replayed.chip.trace.capture() as replayed_issued:
        replay_trace(replayed.chip, parse_trace(text))

    assert _data_state(replayed) == _data_state(original)
    # The replay's own trace dumps back to the identical text.
    assert dump_trace_with_data(replayed_issued) == text


def test_consecutive_batches_one_dump():
    original = _make_device(seed=29)
    with original.chip.trace.capture() as issued:
        for op in (BulkOp.AND, BulkOp.XOR, BulkOp.MAJ):
            dst, src1, src2, src3 = _rows(op.arity)
            original.engine.run_rows(op, dst, src1, src2, src3)

    text = dump_trace_with_data(issued)
    replayed = _make_device(seed=29)
    replay_trace(replayed.chip, parse_trace(text))
    assert _data_state(replayed) == _data_state(original)
