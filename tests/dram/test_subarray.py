"""Subarray activation semantics: the physics Ambit is built on."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.dram.cell import MappingRowDecoder, Wordline
from repro.dram.geometry import SubarrayGeometry
from repro.dram.subarray import Subarray
from repro.errors import AddressError, DramProtocolError

GEO = SubarrayGeometry(rows=24, row_bytes=64)
WORDS = GEO.words_per_row


def _row(rng):
    return rng.integers(0, 2**63, size=WORDS, dtype=np.uint64)


@pytest.fixture
def sub():
    return Subarray(GEO)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestSingleActivation:
    def test_activation_latches_row(self, sub, rng):
        data = _row(rng)
        sub.poke(3, data)
        sub.activate(3)
        assert np.array_equal(sub.read_open_row(), data)

    def test_activation_restores_cell(self, sub, rng):
        # Figure 3 state 5: the capacitor is fully restored.
        data = _row(rng)
        sub.poke(3, data)
        sub.activate(3, now_ns=100.0)
        assert sub.last_restore_ns[3] == 100.0

    def test_fresh_activation_returns_flags(self, sub):
        raised, onto_open = sub.activate(0)
        assert raised == 1 and onto_open is False

    def test_second_activation_copies_latch(self, sub, rng):
        # RowClone-FPM: ACTIVATE src; ACTIVATE dst copies src -> dst.
        data = _row(rng)
        sub.poke(1, data)
        sub.activate(1)
        raised, onto_open = sub.activate(2)
        assert onto_open is True
        sub.precharge()
        assert np.array_equal(sub.peek(2), data)

    def test_precharge_disables_amps(self, sub):
        sub.activate(0)
        sub.precharge()
        with pytest.raises(DramProtocolError):
            sub.read_open_row()

    def test_read_requires_activation(self, sub):
        with pytest.raises(DramProtocolError):
            sub.read_word(0)

    def test_out_of_range_address(self, sub):
        with pytest.raises(AddressError):
            sub.activate(GEO.storage_rows)


class TestReadsAndWrites:
    def test_word_read(self, sub, rng):
        data = _row(rng)
        sub.poke(0, data)
        sub.activate(0)
        assert sub.read_word(3) == int(data[3])

    def test_word_write_updates_cell(self, sub, rng):
        sub.poke(0, _row(rng))
        sub.activate(0)
        sub.write_word(2, 0xDEADBEEF)
        sub.precharge()
        assert int(sub.peek(0)[2]) == 0xDEADBEEF

    def test_write_column_out_of_range(self, sub):
        sub.activate(0)
        with pytest.raises(AddressError):
            sub.write_word(WORDS, 0)

    def test_row_write_shape_checked(self, sub):
        sub.activate(0)
        with pytest.raises(DramProtocolError):
            sub.write_open_row(np.zeros(WORDS + 1, dtype=np.uint64))

    def test_write_reaches_all_raised_rows(self, sub, rng):
        # After an AAP-style double activation, a WRITE drives both rows.
        sub.poke(0, _row(rng))
        sub.activate(0)
        sub.activate(1)
        sub.write_word(0, 42)
        sub.precharge()
        assert int(sub.peek(0)[0]) == 42
        assert int(sub.peek(1)[0]) == 42


class TestTripleRowActivation:
    @pytest.fixture
    def tra_sub(self):
        table = {i: (Wordline(i),) for i in range(GEO.storage_rows)}
        table[100] = (Wordline(0), Wordline(1), Wordline(2))
        return Subarray(GEO, decoder=MappingRowDecoder(table))

    def test_tra_computes_majority(self, tra_sub, rng):
        a, b, c = (_row(rng) for _ in range(3))
        tra_sub.poke(0, a)
        tra_sub.poke(1, b)
        tra_sub.poke(2, c)
        tra_sub.activate(100)
        expected = (a & b) | (b & c) | (c & a)
        assert np.array_equal(tra_sub.read_open_row(), expected)

    def test_tra_overwrites_all_three_cells(self, tra_sub, rng):
        # Issue 3 of Section 3.2: TRA destroys its source values.
        a, b, c = (_row(rng) for _ in range(3))
        for i, v in enumerate((a, b, c)):
            tra_sub.poke(i, v)
        tra_sub.activate(100)
        tra_sub.precharge()
        expected = (a & b) | (b & c) | (c & a)
        for i in range(3):
            assert np.array_equal(tra_sub.peek(i), expected)

    def test_tra_raises_three_wordlines(self, tra_sub):
        raised, onto_open = tra_sub.activate(100)
        assert raised == 3 and onto_open is False

    def test_even_cell_count_unresolvable(self):
        table = {0: (Wordline(0), Wordline(1))}
        sub = Subarray(GEO, decoder=MappingRowDecoder(table))
        with pytest.raises(DramProtocolError):
            sub.activate(0)


class TestDualContactSemantics:
    @pytest.fixture
    def dcc_sub(self):
        table = {i: (Wordline(i),) for i in range(GEO.storage_rows)}
        table[50] = (Wordline(5, negated=True),)  # n-wordline of "DCC" row 5
        table[51] = (Wordline(5, negated=False),)  # its d-wordline
        return Subarray(GEO, decoder=MappingRowDecoder(table))

    def test_n_wordline_stores_negated_latch(self, dcc_sub, rng):
        # Figure 6: activate source, then the n-wordline -> DCC = !source.
        data = _row(rng)
        dcc_sub.poke(0, data)
        dcc_sub.activate(0)
        dcc_sub.activate(50)
        dcc_sub.precharge()
        assert np.array_equal(dcc_sub.peek(5), ~data)

    def test_n_wordline_contributes_negated_value(self, dcc_sub, rng):
        # Reading through the n-wordline senses the complement.
        data = _row(rng)
        dcc_sub.poke(5, data)
        dcc_sub.activate(50)
        assert np.array_equal(dcc_sub.read_open_row(), ~data)

    def test_d_wordline_roundtrip(self, dcc_sub, rng):
        data = _row(rng)
        dcc_sub.poke(5, data)
        dcc_sub.activate(51)
        assert np.array_equal(dcc_sub.read_open_row(), data)

    def test_double_negation_is_identity(self, dcc_sub, rng):
        # ACT n-wordline (sense !DCC), ACT a row -> row = !DCC; doing it
        # twice restores the original value.
        data = _row(rng)
        dcc_sub.poke(5, data)
        dcc_sub.activate(50)
        dcc_sub.activate(1)
        dcc_sub.precharge()
        assert np.array_equal(dcc_sub.peek(1), ~data)


class TestRetention:
    def test_stale_rows_reported(self, sub, rng):
        sub.poke(0, _row(rng), now_ns=0.0)
        stale = sub.stale_rows(now_ns=65e6, retention_ns=64e6)
        assert 0 in stale

    def test_activation_refreshes(self, sub, rng):
        sub.poke(0, _row(rng), now_ns=0.0)
        sub.activate(0, now_ns=63e6)
        sub.precharge()
        assert 0 not in sub.stale_rows(now_ns=65e6, retention_ns=64e6)

    def test_refresh_all(self, sub):
        sub.refresh_all(now_ns=1e6)
        assert sub.stale_rows(now_ns=1e6 + 1, retention_ns=64e6).size == 0

    def test_age(self, sub):
        sub.poke(4, np.zeros(WORDS, dtype=np.uint64), now_ns=10.0)
        assert sub.age_ns(4, now_ns=25.0) == pytest.approx(15.0)


class TestBatchAccess:
    def test_poke_batch_rejects_duplicate_rows(self, sub, rng):
        with pytest.raises(AddressError, match="duplicate"):
            sub.poke_batch([2, 3, 2], np.stack([_row(rng)] * 3))

    @pytest.mark.parametrize("rows", [[-1], [0, GEO.storage_rows]])
    def test_poke_batch_rejects_out_of_range_rows(self, sub, rng, rows):
        with pytest.raises(AddressError, match="out of range"):
            sub.poke_batch(rows, np.stack([_row(rng)] * len(rows)))

    def test_poke_batch_rejects_a_2d_index(self, sub, rng):
        with pytest.raises(AddressError, match="one-dimensional"):
            sub.poke_batch([[1, 2]], np.stack([_row(rng)] * 2))

    def test_fused_batch_does_not_import_numpy_ma(self):
        # On numpy 2, the first np.unique call imports numpy.ma, which
        # adds resident memory to every process running fused kernels.
        script = textwrap.dedent(
            """
            import sys
            import numpy
            if "numpy.ma" in sys.modules:
                print("preloaded")
                sys.exit(0)
            from repro.core.device import AmbitDevice
            from repro.core.microprograms import BulkOp
            from repro.dram.chip import RowLocation
            from repro.dram.geometry import small_test_geometry

            device = AmbitDevice(
                geometry=small_test_geometry(rows=32, row_bytes=64, banks=2)
            )
            rows = [
                [RowLocation(bank, 0, 3 * i + k) for bank in (0, 1)
                 for i in range(4)]
                for k in range(3)
            ]
            report = device.engine.run_rows(BulkOp.AND, *rows)
            assert report.fused_rows == 8, report
            print("numpy.ma" in sys.modules)
            """
        )
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (src, env.get("PYTHONPATH")))
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, check=True,
        ).stdout.strip()
        if out == "preloaded":
            pytest.skip("importing numpy already loads numpy.ma here")
        assert out == "False"
