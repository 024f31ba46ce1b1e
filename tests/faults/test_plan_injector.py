"""FaultPlan determinism and FaultInjector mechanics."""

import numpy as np
import pytest

from repro.core.device import AmbitDevice
from repro.dram.geometry import small_test_geometry
from repro.errors import ConfigError
from repro.faults.injector import FaultInjector, flip_mask
from repro.faults.plan import DEVICE_KINDS, FaultPlan

ROWS = {(0, 0): list(range(8)), (1, 0): list(range(8))}


def make_plan(**overrides):
    kwargs = dict(
        ops=200, seed=7, fault_rate=2e-2, rows=ROWS, row_bits=256,
        mc_trials=256,
    )
    kwargs.update(overrides)
    return FaultPlan.generate(**kwargs)


class TestPlan:
    def test_same_seed_same_schedule(self):
        assert make_plan().events == make_plan().events

    def test_different_seed_different_schedule(self):
        assert make_plan().events != make_plan(seed=8).events

    def test_at_least_one_event(self):
        """The Poisson draw is floored at one so tiny rates still test."""
        plan = make_plan(ops=10, fault_rate=1e-9)
        assert len(plan) >= 1

    def test_events_sorted_and_within_horizon(self):
        plan = make_plan()
        indices = [e.op_index for e in plan.events]
        assert indices == sorted(indices)
        assert all(0 <= i < 200 * 0.8 for i in indices)

    def test_stuck_rows_drawn_from_working_set(self):
        plan = make_plan()
        for event in plan.events:
            if event.kind == "stuck_row":
                assert event.row in ROWS[(event.bank, event.subarray)]

    def test_tra_flips_always_observable(self):
        plan = make_plan()
        for event in plan.events:
            if event.kind == "tra_flip":
                assert len(event.flip_bits) >= 1
                assert all(0 <= b < 256 for b in event.flip_bits)

    def test_at_most_one_dcc_fault_per_subarray(self):
        plan = make_plan(fault_rate=0.2, kinds=("dcc",))
        per_sub = {}
        for event in plan.events:
            if event.kind == "dcc":
                key = (event.bank, event.subarray)
                per_sub[key] = per_sub.get(key, 0) + 1
        assert all(count == 1 for count in per_sub.values())

    def test_pool_kinds_rejected_only_if_unknown(self):
        make_plan(kinds=DEVICE_KINDS)  # valid
        # The worker-pool kinds went with the multi-process tier.
        for kinds in (("bitrot",), ("worker_crash",), ("worker_stall",)):
            with pytest.raises(ConfigError):
                make_plan(kinds=kinds)

    def test_bad_config_raises(self):
        with pytest.raises(ConfigError):
            make_plan(ops=0)
        with pytest.raises(ConfigError):
            make_plan(rows={})

    def test_kinds_summary_counts_every_event(self):
        plan = make_plan()
        assert sum(plan.kinds().values()) == len(plan)


class TestFlipMask:
    def test_positions_map_to_words_and_bits(self):
        mask = flip_mask([0, 63, 64, 129], words=3)
        assert mask[0] == (1 | (1 << 63))
        assert mask[1] == 1
        assert mask[2] == 2


class TestInjector:
    def make_device(self):
        return AmbitDevice(
            geometry=small_test_geometry(
                rows=48, row_bytes=32, banks=2, subarrays_per_bank=1
            )
        )

    def test_stuck_row_applied_at_physical_row(self):
        device = self.make_device()
        plan = make_plan(kinds=("stuck_row",))
        injector = FaultInjector(device, plan)
        event = plan.events[0]
        injector.before_op(event.op_index)
        subarray = device.chip.bank(event.bank).subarray(event.subarray)
        assert event.row in subarray.stuck

    def test_tra_hook_is_one_shot(self):
        device = self.make_device()
        plan = make_plan(kinds=("tra_flip",))
        injector = FaultInjector(device, plan)
        event = plan.events[0]
        injector.before_op(event.op_index)
        subarray = device.chip.bank(event.bank).subarray(event.subarray)
        hook = subarray.tra_fault_hook
        assert hook is not None
        mask = hook(np.zeros(4, dtype=np.uint64))
        assert subarray.tra_fault_hook is None  # disarmed itself
        np.testing.assert_array_equal(
            mask, flip_mask(event.flip_bits, 4)
        )

    def test_injected_counter_tracks_applied(self):
        device = self.make_device()
        plan = make_plan(kinds=("stuck_row",))
        injector = FaultInjector(device, plan)
        for i in range(plan.ops):
            injector.before_op(i)
        family = device.metrics.get("ambit_faults_injected_total")
        total = sum(child.value for child in family.children.values())
        assert total == len(injector.applied) == len(plan)
        assert injector.drain() == []

    def test_drain_reports_unreached_events(self):
        device = self.make_device()
        plan = make_plan(kinds=("stuck_row",))
        injector = FaultInjector(device, plan)  # never steps
        assert len(injector.drain()) == len(plan)
        assert injector.drain() == []  # drained once
