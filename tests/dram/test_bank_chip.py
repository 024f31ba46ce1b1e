"""Bank and chip behaviour: open-row discipline, addressing, tracing."""

import numpy as np
import pytest

from repro.dram.chip import DramChip, RowLocation
from repro.dram.commands import Command, Opcode
from repro.dram.geometry import small_test_geometry
from repro.errors import AddressError, DramProtocolError

GEO = small_test_geometry(rows=24, row_bytes=64, banks=2, subarrays_per_bank=2)


@pytest.fixture
def chip():
    return DramChip(GEO)


@pytest.fixture
def rng():
    return np.random.default_rng(11)


def _row(rng):
    return rng.integers(0, 2**63, size=GEO.subarray.words_per_row, dtype=np.uint64)


class TestBankDiscipline:
    def test_single_open_subarray(self, chip):
        chip.activate(0, 0, 1)
        with pytest.raises(DramProtocolError):
            chip.activate(0, 1, 1)  # other subarray, same bank

    def test_precharge_allows_switch(self, chip):
        chip.activate(0, 0, 1)
        chip.precharge(0)
        chip.activate(0, 1, 1)  # now legal

    def test_banks_are_independent(self, chip):
        chip.activate(0, 0, 1)
        chip.activate(1, 1, 2)  # different bank: fine
        assert chip.bank(0).open_subarray == 0
        assert chip.bank(1).open_subarray == 1

    def test_precharge_idempotent(self, chip):
        chip.precharge(0)
        chip.precharge(0)

    def test_read_requires_open_row(self, chip):
        with pytest.raises(DramProtocolError):
            chip.read_word(0, 0)

    def test_refresh_requires_precharged(self, chip):
        chip.activate(0, 0, 1)
        with pytest.raises(DramProtocolError):
            chip.refresh()

    def test_bank_index_checked(self, chip):
        with pytest.raises(AddressError):
            chip.bank(5)


class TestCommandExecution:
    def test_read_returns_data(self, chip, rng):
        data = _row(rng)
        chip.poke_row(RowLocation(0, 0, 3), data)
        chip.activate(0, 0, 3)
        assert chip.read_word(0, 2) == int(data[2])

    def test_write_word(self, chip):
        chip.activate(0, 0, 3)
        chip.write_word(0, 1, 777)
        chip.precharge(0)
        assert int(chip.peek_row(RowLocation(0, 0, 3))[1]) == 777

    def test_activate_requires_row(self, chip):
        with pytest.raises(DramProtocolError):
            chip.execute(Command(Opcode.ACTIVATE, bank=0))

    def test_trace_records_commands(self, chip):
        chip.activate(0, 0, 1)
        chip.precharge(0)
        acts, pres, _, _ = chip.trace.counts()
        assert (acts, pres) == (1, 1)

    def test_trace_records_reads_writes(self, chip, rng):
        chip.poke_row(RowLocation(0, 0, 0), _row(rng))
        chip.activate(0, 0, 0)
        chip.read_word(0, 0)
        chip.write_word(0, 0, 1)
        _, _, rds, wrs = chip.trace.counts()
        assert (rds, wrs) == (1, 1)

    def test_refresh_restores_all(self, chip):
        chip.clock_ns = 5e6
        chip.refresh()
        sub = chip.bank(1).subarray(1)
        assert (sub.last_restore_ns == 5e6).all()


class TestGlobalAddressing:
    def test_data_rows_total(self, chip):
        per_sub = GEO.subarray.data_rows
        assert chip.data_rows == 2 * 2 * per_sub

    def test_roundtrip(self, chip):
        for r in range(chip.data_rows):
            loc = chip.locate_data_row(r)
            assert chip.global_data_row(loc) == r

    def test_contiguity_within_subarray(self, chip):
        # Section 5.1: software sees contiguous D-group addresses.
        loc0 = chip.locate_data_row(0)
        loc1 = chip.locate_data_row(1)
        assert (loc0.bank, loc0.subarray) == (loc1.bank, loc1.subarray)
        assert loc1.address == loc0.address + 1

    def test_out_of_range(self, chip):
        with pytest.raises(AddressError):
            chip.locate_data_row(chip.data_rows)

    def test_global_of_bad_local(self, chip):
        with pytest.raises(AddressError):
            chip.global_data_row(RowLocation(0, 0, GEO.subarray.data_rows))

    def test_peek_poke_global(self, chip, rng):
        data = _row(rng)
        chip.poke_global(5, data)
        assert np.array_equal(chip.peek_global(5), data)


class TestWordlineTracing:
    def test_multi_wordline_activates_recorded(self):
        from repro.core.addressing import AmbitAddressMap

        amap = AmbitAddressMap(GEO.subarray)
        chip = DramChip(GEO, decoder_factory=lambda: amap.build_decoder())
        with chip.trace.capture() as captured:
            chip.activate(0, 0, amap.b(12))  # T0,T1,T2 TRA
        entry = captured[-1]
        assert entry.wordlines_raised == 3
        assert entry.onto_open_row is False

    def test_weighted_activates(self):
        from repro.core.addressing import AmbitAddressMap

        amap = AmbitAddressMap(GEO.subarray)
        chip = DramChip(GEO, decoder_factory=lambda: amap.build_decoder())
        chip.activate(0, 0, amap.b(12))
        # 1 + 0.22 * 2 extra wordlines
        assert chip.trace.weighted_activates() == pytest.approx(1.44)
