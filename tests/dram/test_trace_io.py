"""Command-trace serialisation and replay."""

import numpy as np
import pytest

from repro.core.device import AmbitDevice
from repro.core.microprograms import BulkOp
from repro.dram.chip import DramChip, RowLocation
from repro.dram.geometry import small_test_geometry
from repro.dram.trace_io import (
    TraceEntry,
    dump_trace,
    parse_trace,
    replay_trace,
    roundtrip,
)
from repro.errors import DramProtocolError

GEO = small_test_geometry(rows=24, row_bytes=64, banks=2, subarrays_per_bank=2)


class TestFormat:
    def test_parse_basic_lines(self):
        text = """
        # warm-up
        ACT 0 1 5
        RD 0 3
        WR 0 4 0xdeadbeef
        PRE 0
        REF
        """
        entries = parse_trace(text)
        mnemonics = [e.format().split()[0] for e in entries]
        assert mnemonics == ["ACT", "RD", "WR", "PRE", "REF"]
        assert entries[2].write_value == 0xDEADBEEF

    def test_format_parse_roundtrip(self):
        text = "ACT 1 0 7\nWR 1 2 0x2a\nPRE 1"
        entries = parse_trace(text)
        assert parse_trace("\n".join(e.format() for e in entries)) == entries

    def test_unknown_mnemonic(self):
        with pytest.raises(DramProtocolError):
            parse_trace("NOP 0")

    def test_malformed_operands(self):
        with pytest.raises(DramProtocolError):
            parse_trace("ACT 0 zero 1")
        with pytest.raises(DramProtocolError):
            parse_trace("RD 0")

    def test_comments_and_blanks_ignored(self):
        assert parse_trace("\n\n# nothing\n") == []


class TestReplay:
    def test_replay_reads_data(self):
        chip = DramChip(GEO)
        rng = np.random.default_rng(0)
        data = rng.integers(0, 2**63, size=GEO.subarray.words_per_row,
                            dtype=np.uint64)
        chip.poke_row(RowLocation(0, 0, 3), data)
        reads = replay_trace(chip, parse_trace("ACT 0 0 3\nRD 0 2\nPRE 0"))
        assert reads == [int(data[2])]

    def test_replay_writes_data(self):
        chip = DramChip(GEO)
        replay_trace(chip, parse_trace("ACT 0 0 3\nWR 0 1 0x77\nPRE 0"))
        assert int(chip.peek_row(RowLocation(0, 0, 3))[1]) == 0x77

    def test_illegal_trace_raises(self):
        chip = DramChip(GEO)
        with pytest.raises(DramProtocolError):
            replay_trace(chip, parse_trace("RD 0 0"))  # no open row


class TestAmbitReplay:
    def test_ambit_dump_replays_bit_exactly(self):
        """Dump the command stream of a bulk XOR and replay it onto a
        fresh Ambit device with the same initial memory image: the
        replayed device computes the identical result."""
        rng = np.random.default_rng(1)
        words = GEO.subarray.words_per_row
        a = rng.integers(0, 2**63, size=words, dtype=np.uint64)
        b = rng.integers(0, 2**63, size=words, dtype=np.uint64)

        original = AmbitDevice(geometry=GEO)
        original.write_row(RowLocation(0, 0, 0), a)
        original.write_row(RowLocation(0, 0, 1), b)
        original.reset_stats()
        with original.chip.trace.capture() as issued:
            original.bbop_row(BulkOp.XOR, RowLocation(0, 0, 2),
                              RowLocation(0, 0, 0), RowLocation(0, 0, 1))
        trace_text = dump_trace(issued)

        replayed = AmbitDevice(geometry=GEO)
        replayed.write_row(RowLocation(0, 0, 0), a)
        replayed.write_row(RowLocation(0, 0, 1), b)
        replay_trace(replayed.chip, parse_trace(trace_text))
        assert np.array_equal(
            replayed.read_row(RowLocation(0, 0, 2)), a ^ b
        )

    def test_roundtrip_helper(self):
        device = AmbitDevice(geometry=GEO)
        device.write_row(RowLocation(0, 0, 0),
                         np.zeros(GEO.subarray.words_per_row, dtype=np.uint64))
        device.reset_stats()
        with device.chip.trace.capture() as issued:
            device.bbop_row(
                BulkOp.NOT, RowLocation(0, 0, 2), RowLocation(0, 0, 0)
            )
        entries = roundtrip(issued)
        # not = 2 AAPs = 4 ACTs + 2 PREs.
        acts = sum(1 for e in entries if e.format().startswith("ACT"))
        pres = sum(1 for e in entries if e.format().startswith("PRE"))
        assert (acts, pres) == (4, 2)
