"""Command records and trace accounting."""

import pytest

from repro.dram.commands import (
    Command,
    CommandTrace,
    IssuedCommand,
    Opcode,
    activate,
    precharge,
    read,
    write,
)


class TestConstructors:
    def test_activate(self):
        cmd = activate(1, 2, 3)
        assert cmd.opcode is Opcode.ACTIVATE
        assert (cmd.bank, cmd.subarray, cmd.row) == (1, 2, 3)

    def test_precharge(self):
        cmd = precharge(1)
        assert cmd.opcode is Opcode.PRECHARGE and cmd.bank == 1

    def test_read_write(self):
        assert read(0, 0, 7).column == 7
        assert write(0, 0, 9).opcode is Opcode.WRITE

    def test_commands_are_frozen(self):
        cmd = activate(0, 0, 0)
        with pytest.raises(AttributeError):
            cmd.bank = 1

    def test_str_forms(self):
        assert "ACT" in str(activate(0, 0, 5))
        assert "PRECHARGE" in str(precharge(0))
        assert "col=3" in str(read(0, 0, 3))


class TestTrace:
    def test_counts(self):
        trace = CommandTrace()
        trace.append(IssuedCommand(activate(0, 0, 1)))
        trace.append(IssuedCommand(activate(0, 0, 2)))
        trace.append(IssuedCommand(precharge(0)))
        trace.append(IssuedCommand(read(0, 0, 0)))
        assert trace.counts() == (2, 1, 1, 0)
        assert len(trace) == 4

    def test_weighted_activates(self):
        trace = CommandTrace()
        trace.append(IssuedCommand(activate(0, 0, 1), wordlines_raised=1))
        trace.append(IssuedCommand(activate(0, 0, 2), wordlines_raised=3))
        # 1 + (1 + 0.22*2) = 2.44
        assert trace.weighted_activates() == pytest.approx(2.44)

    def test_weighted_custom_factor(self):
        trace = CommandTrace()
        trace.append(IssuedCommand(activate(0, 0, 1), wordlines_raised=2))
        assert trace.weighted_activates(0.5) == pytest.approx(1.5)

    def test_clear(self):
        trace = CommandTrace()
        trace.append(IssuedCommand(precharge(0)))
        trace.clear()
        assert len(trace) == 0

    def test_charged_rows_count_their_totals(self):
        trace = CommandTrace()
        start = trace.record()
        act3 = IssuedCommand(activate(0, 0, 1), wordlines_raised=3)
        pre = IssuedCommand(precharge(0))

        class totals:  # one row's op totals: two TRAs and a precharge
            commands = (((Opcode.ACTIVATE, 3), 2), ((Opcode.PRECHARGE, 1), 1))

        with trace.capture() as captured:
            trace.charge(totals, 2)
            trace.log((act3, act3, pre) * 2)
            trace.append(IssuedCommand(read(0, 0, 0)))
        assert trace.counts() == (4, 2, 1, 0)
        assert len(trace) == len(captured) == 7
        trace.clear()
        assert len(trace) == 0 and trace.counts() == (0, 0, 0, 0)
        # Counters never decrease: a record from before the clear still
        # differences exactly against one after it.
        delta = trace.record() - start
        assert delta.charged == {totals: 2}
        assert delta.commands() == {
            (Opcode.ACTIVATE, 3): 4,
            (Opcode.PRECHARGE, 1): 2,
            (Opcode.READ, 1): 1,
        }

    def test_iteration_and_extend(self):
        trace = CommandTrace()
        items = [IssuedCommand(precharge(0)), IssuedCommand(precharge(1))]
        with trace.capture() as captured:
            trace.extend(items)
        assert [e.command.bank for e in captured] == [0, 1]

    def test_commands_are_kept_only_while_captured(self):
        trace = CommandTrace()
        trace.append(IssuedCommand(precharge(0)))
        with trace.capture() as outer:
            trace.append(IssuedCommand(precharge(1)))
            with trace.capture() as inner:
                assert trace.capturing
                trace.append(IssuedCommand(precharge(2)))
            trace.append(IssuedCommand(precharge(3)))
        trace.append(IssuedCommand(precharge(4)))
        assert not trace.capturing
        assert [e.command.bank for e in outer] == [1, 2, 3]
        assert [e.command.bank for e in inner] == [2]
        assert len(trace) == 5
        assert not hasattr(trace, "entries")

    def test_onto_open_row_flag_default(self):
        issued = IssuedCommand(activate(0, 0, 1))
        assert issued.onto_open_row is False
