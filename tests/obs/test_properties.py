"""Property tests tying observability to ground truth.

Two invariants, fuzzed over random command programs:

1. **Lossless round trip** -- ``dump_trace_with_data`` -> ``parse_trace``
   -> ``replay_trace`` on a fresh device reproduces the data state
   bit-for-bit, including WRITE payloads (and zero payloads, which the
   old ``write_value or 0`` replay conflated with "missing").
2. **Counter fidelity** -- the profiler's streaming counters equal a
   from-scratch recount over the chip's raw command trace, and its
   busy/AAP/energy totals match the controller's own accounting.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.device import AmbitDevice
from repro.core.microprograms import BulkOp
from repro.dram.chip import RowLocation
from repro.dram.commands import Opcode
from repro.dram.geometry import small_test_geometry
from repro.dram.trace_io import dump_trace_with_data, parse_trace, replay_trace
from repro.energy.power_model import trace_energy_nj

N_BANKS = 2
N_SUBS = 2
DATA_ROWS = 8  # low rows are plain data in the 32-row tiny geometry
WORDS_PER_ROW = 8  # 64-byte rows

OPS = (
    BulkOp.AND,
    BulkOp.OR,
    BulkOp.NOT,
    BulkOp.NAND,
    BulkOp.NOR,
    BulkOp.XOR,
    BulkOp.XNOR,
)


def make_device() -> AmbitDevice:
    return AmbitDevice(
        geometry=small_test_geometry(
            rows=32, row_bytes=64, banks=N_BANKS, subarrays_per_bank=N_SUBS
        )
    )


@st.composite
def programs(draw):
    """A short random mix of bulk ops and traced raw writes."""
    n = draw(st.integers(min_value=1, max_value=6))
    actions = []
    for _ in range(n):
        bank = draw(st.integers(0, N_BANKS - 1))
        sub = draw(st.integers(0, N_SUBS - 1))
        if draw(st.booleans()):
            op = draw(st.sampled_from(OPS))
            rows = draw(
                st.lists(
                    st.integers(0, DATA_ROWS - 1),
                    min_size=3,
                    max_size=3,
                    unique=True,
                )
            )
            actions.append(("bbop", op, bank, sub, tuple(rows)))
        else:
            row = draw(st.integers(0, DATA_ROWS - 1))
            writes = draw(
                st.lists(
                    st.tuples(
                        st.integers(0, WORDS_PER_ROW - 1),
                        st.integers(0, 2**64 - 1),
                    ),
                    min_size=1,
                    max_size=4,
                )
            )
            actions.append(("write", bank, sub, row, tuple(writes)))
    return actions


def run_program(device: AmbitDevice, actions) -> None:
    for action in actions:
        if action[0] == "bbop":
            _, op, bank, sub, (dst, src1, src2) = action
            device.bbop_row(
                op,
                RowLocation(bank, sub, dst),
                RowLocation(bank, sub, src1),
                RowLocation(bank, sub, src2) if op.arity >= 2 else None,
            )
        else:
            _, bank, sub, row, writes = action
            chip = device.chip
            chip.activate(bank, sub, row)
            for column, value in writes:
                chip.write_word(bank, column, value)
            chip.precharge(bank)


def data_state(device: AmbitDevice):
    """Every data row of every subarray, as comparable tuples."""
    return {
        (b, s, r): tuple(device.read_row(RowLocation(b, s, r)).tolist())
        for b in range(N_BANKS)
        for s in range(N_SUBS)
        for r in range(DATA_ROWS)
    }


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(actions=programs())
def test_dump_parse_replay_roundtrip(actions):
    original = make_device()
    with original.chip.trace.capture() as issued:
        run_program(original, actions)

    text = dump_trace_with_data(issued)
    entries = parse_trace(text)

    replayed = make_device()
    with replayed.chip.trace.capture() as replayed_issued:
        replay_trace(replayed.chip, entries)

    assert data_state(replayed) == data_state(original)
    # and the replay's own trace dumps back to the identical text
    assert dump_trace_with_data(replayed_issued) == text


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(actions=programs())
def test_profiled_counters_match_raw_trace(actions):
    device = make_device()
    busy_before = device.controller.stats.busy_ns
    aaps_before = device.controller.stats.aap_count
    aps_before = device.controller.stats.ap_count

    with device.profile() as prof, device.chip.trace.capture() as entries:
        run_program(device, actions)

    counts = Counter(entry.command.opcode for entry in entries)
    c = prof.counters
    assert c.activates == counts[Opcode.ACTIVATE]
    assert c.precharges == counts[Opcode.PRECHARGE]
    assert c.writes == counts[Opcode.WRITE]
    assert c.reads == counts[Opcode.READ]
    assert c.commands == len(entries)
    assert c.tras == sum(1 for e in entries if e.wordlines_raised >= 3)
    assert c.double_row_activations == sum(
        1 for e in entries if e.wordlines_raised == 2
    )
    # energy: streaming per-command attribution == batch trace accounting
    assert c.energy_pj == pytest.approx(
        trace_energy_nj(entries, device.row_bytes) * 1000.0
    )
    # busy/AAP/AP: tracer agrees with the controller's own books
    assert c.busy_ns == pytest.approx(
        device.controller.stats.busy_ns - busy_before
    )
    assert c.aaps == device.controller.stats.aap_count - aaps_before
    assert c.aps == device.controller.stats.ap_count - aps_before
    assert sum(c.ops.values()) == sum(
        1 for action in actions if action[0] == "bbop"
    )


def test_zero_payload_survives_roundtrip():
    """Regression: ``entry.write_value or 0`` hid this case; an explicit
    0x0 payload must replay as a recorded zero, not a missing one."""
    original = make_device()
    chip = original.chip
    with chip.trace.capture() as issued:
        chip.activate(0, 0, 2)
        chip.write_word(0, 0, 0xFFFFFFFFFFFFFFFF)
        chip.precharge(0)
        chip.activate(0, 0, 2)
        chip.write_word(0, 0, 0)
        chip.precharge(0)

    text = dump_trace_with_data(issued)
    assert "WR 0 0 0x0" in text or "WR 0 0 0" in text

    replayed = make_device()
    replay_trace(replayed.chip, parse_trace(text))
    assert data_state(replayed) == data_state(original)
    word = replayed.read_row(RowLocation(0, 0, 2))[0]
    assert int(word) == 0
