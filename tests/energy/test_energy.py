"""Energy model: Table 3 structure and the command-trace fold."""

import pytest

from repro.core.device import AmbitDevice
from repro.core.microprograms import BulkOp
from repro.dram.geometry import small_test_geometry
from repro.energy.accounting import (
    OP_CLASSES,
    TABLE3_PAPER,
    ambit_op_energy_nj_per_kb,
    format_table3,
    table3_experiment,
)
from repro.energy.power_model import (
    DEFAULT_ENERGY,
    EnergyParameters,
    ddr_op_energy_nj_per_kb,
    trace_energy_nj,
)
from repro.errors import ConfigError


class TestParameters:
    def test_extra_wordline_surcharge(self):
        p = EnergyParameters()
        one = p.activate_nj(1, 8192)
        three = p.activate_nj(3, 8192)
        assert three == pytest.approx(one * 1.44)  # +22% per extra wordline

    def test_scales_with_row_size(self):
        p = EnergyParameters()
        assert p.activate_nj(1, 4096) == pytest.approx(p.activate_nj(1, 8192) / 2)

    def test_transfer_energy(self):
        p = EnergyParameters(channel_nj_per_kb=46.0)
        assert p.transfer_nj(1024) == pytest.approx(46.0)

    def test_invalid_constants(self):
        with pytest.raises(ConfigError):
            EnergyParameters(act_nj=0)
        with pytest.raises(ConfigError):
            EnergyParameters(extra_wordline_factor=-0.1)


class TestTable3:
    @pytest.fixture(scope="class")
    def rows(self):
        return table3_experiment()

    def test_not_energy_near_paper(self, rows):
        assert rows["not"].ambit_nj_per_kb == pytest.approx(1.6, rel=0.10)
        assert rows["not"].ddr3_nj_per_kb == pytest.approx(93.7, rel=0.10)

    def test_and_or_energy_near_paper(self, rows):
        assert rows["and/or"].ambit_nj_per_kb == pytest.approx(3.2, rel=0.10)
        assert rows["and/or"].ddr3_nj_per_kb == pytest.approx(137.9, rel=0.10)

    def test_nand_nor_energy_near_paper(self, rows):
        assert rows["nand/nor"].ambit_nj_per_kb == pytest.approx(4.0, rel=0.10)

    def test_xor_xnor_energy_near_paper(self, rows):
        assert rows["xor/xnor"].ambit_nj_per_kb == pytest.approx(5.5, rel=0.10)

    def test_reductions_in_paper_range(self, rows):
        # Section 7: 25.1X - 59.5X reduction.
        for row in rows.values():
            assert 20.0 <= row.reduction <= 70.0

    def test_not_is_cheapest_xor_most_expensive(self, rows):
        assert (
            rows["not"].ambit_nj_per_kb
            < rows["and/or"].ambit_nj_per_kb
            < rows["nand/nor"].ambit_nj_per_kb
            < rows["xor/xnor"].ambit_nj_per_kb
        )

    def test_two_operand_ddr_cost_uniform(self, rows):
        # The DDR3 column is identical for all two-operand ops.
        assert rows["and/or"].ddr3_nj_per_kb == pytest.approx(
            rows["xor/xnor"].ddr3_nj_per_kb
        )

    def test_format_contains_paper_columns(self, rows):
        text = format_table3(rows)
        assert "paper DDR3" in text and "xor/xnor" in text

    def test_paper_reference_data(self):
        assert set(TABLE3_PAPER) == set(OP_CLASSES)


class TestTraceFold:
    def test_energy_independent_of_row_size_per_kb(self):
        small = AmbitDevice(geometry=small_test_geometry(rows=24, row_bytes=64))
        large = AmbitDevice(geometry=small_test_geometry(rows=24, row_bytes=512))
        e_small = ambit_op_energy_nj_per_kb(BulkOp.AND, small)
        e_large = ambit_op_energy_nj_per_kb(BulkOp.AND, large)
        assert e_small == pytest.approx(e_large)

    def test_empty_trace_zero_energy(self):
        device = AmbitDevice(geometry=small_test_geometry())
        device.reset_stats()
        with device.chip.trace.capture() as issued:
            pass
        assert trace_energy_nj(issued, device.row_bytes) == 0.0

    def test_reads_writes_charged(self):
        device = AmbitDevice(geometry=small_test_geometry())
        with device.chip.trace.capture() as issued:
            device.chip.activate(0, 0, 0)
            device.chip.read_word(0, 0)
            base = trace_energy_nj(issued, device.row_bytes)
            device.chip.read_word(0, 1)
        more = trace_energy_nj(issued, device.row_bytes)
        assert more > base

    def test_ddr_copy_vs_op_traffic(self):
        # not/copy move 2 rows; two-operand ops move 3.
        assert ddr_op_energy_nj_per_kb(BulkOp.AND) > ddr_op_energy_nj_per_kb(
            BulkOp.NOT
        )
        assert ddr_op_energy_nj_per_kb(BulkOp.COPY) == pytest.approx(
            ddr_op_energy_nj_per_kb(BulkOp.NOT)
        )
