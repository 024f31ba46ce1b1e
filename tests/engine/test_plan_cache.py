"""The microprogram plan cache: compile once, reuse everywhere."""

import dataclasses

import pytest

from repro.core.device import AmbitDevice
from repro.core.microprograms import BulkOp, compile_op
from repro.core.primitives import AAP
from repro.dram.commands import Opcode
from repro.dram.geometry import small_test_geometry
from repro.engine.plan import PlanCache
from repro.errors import AddressError

GOLDEN_OPS = (
    BulkOp.NOT,
    BulkOp.AND,
    BulkOp.OR,
    BulkOp.NAND,
    BulkOp.NOR,
    BulkOp.XOR,
    BulkOp.XNOR,
)


@pytest.fixture
def device():
    return AmbitDevice(geometry=small_test_geometry())


class TestCaching:
    def test_hit_returns_same_plan(self, device):
        cache = device.controller.plan_cache
        first = cache.get(BulkOp.AND, 3, 0, 1)
        second = cache.get(BulkOp.AND, 3, 0, 1)
        assert first is second
        assert cache.misses == 1 and cache.hits == 1

    def test_distinct_addresses_compile_separately(self, device):
        cache = device.controller.plan_cache
        cache.get(BulkOp.AND, 3, 0, 1)
        cache.get(BulkOp.AND, 4, 0, 1)
        assert cache.misses == 2 and len(cache) == 2

    def test_plan_matches_direct_compilation(self, device):
        controller = device.controller
        plan = controller.plan_cache.get(BulkOp.XOR, 3, 0, 1)
        program = compile_op(controller.amap, BulkOp.XOR, 3, 0, 1)
        assert plan.program.primitives == program.primitives
        assert plan.total_ns == pytest.approx(
            sum(
                p.latency_ns(
                    controller.timing, controller.amap, controller.split_decoder
                )
                for p in program.primitives
            )
        )
        assert plan.num_aap == program.num_aap
        assert plan.num_ap == program.num_ap
        assert plan.num_commands == 3 * plan.num_aap + 2 * plan.num_ap

    def test_invalid_operands_still_raise(self, device):
        cache = device.controller.plan_cache
        with pytest.raises(AddressError):
            cache.get(BulkOp.NOT, 3, 0, 1)  # NOT takes one source
        with pytest.raises(AddressError):
            cache.get(BulkOp.MAJ, 3, 0, None, None)


class TestControllerIntegration:
    def test_bbop_populates_and_reuses_cache(self, device):
        cache = device.controller.plan_cache
        device.controller.bbop(BulkOp.AND, 0, 0, 3, 0, 1)
        assert cache.misses == 1
        device.controller.bbop(BulkOp.AND, 1, 1, 3, 0, 1)
        assert cache.hits == 1  # other bank, same addresses: cache hit

    @pytest.mark.parametrize("op", GOLDEN_OPS)
    def test_op_latency_ns_cached(self, device, op):
        controller = device.controller
        cache = controller.plan_cache
        first = controller.op_latency_ns(op)
        misses = cache.misses
        assert controller.op_latency_ns(op) == first
        assert cache.misses == misses  # second query is a pure hit

    def test_reset_stats_keeps_plans_but_zeroes_counters(self, device):
        controller = device.controller
        controller.bbop(BulkOp.XOR, 0, 0, 3, 0, 1)
        controller.bbop(BulkOp.XOR, 0, 0, 3, 0, 1)
        cache = controller.plan_cache
        assert len(cache) == 1 and cache.hits == 1
        controller.reset_stats()
        assert len(cache) == 1  # compiled plans survive
        assert cache.hits == 0 and cache.misses == 0
        controller.bbop(BulkOp.XOR, 0, 0, 3, 0, 1)
        assert cache.hits == 1 and cache.misses == 0  # still warm


class TestIssuedCommands:
    @pytest.mark.parametrize("op", GOLDEN_OPS + (BulkOp.COPY, BulkOp.MAJ))
    def test_schedule_matches_executed_trace(self, device, op):
        """The cached flat schedule is byte-identical to real execution."""
        from repro.dram.chip import RowLocation

        controller = device.controller
        dst = RowLocation(0, 1, 3)
        device.bbop_row(
            op,
            dst,
            RowLocation(0, 1, 0),
            RowLocation(0, 1, 1) if op.arity >= 2 else None,
            RowLocation(0, 1, 2) if op.arity == 3 else None,
        )
        executed = list(device.chip.trace)
        plan = controller.plan_cache.get(
            op, 3, 0,
            1 if op.arity >= 2 else None,
            2 if op.arity == 3 else None,
        )
        synthesized = controller.plan_cache.issued_commands(plan, 0, 1)
        assert len(synthesized) == len(executed) == plan.num_commands
        for real, synth in zip(executed, synthesized):
            assert synth.command == real.command
            assert synth.wordlines_raised == real.wordlines_raised
            assert synth.onto_open_row == real.onto_open_row
            assert synth.write_value is None

    def test_schedule_is_cached_per_subarray(self, device):
        cache = device.controller.plan_cache
        plan = cache.get(BulkOp.AND, 3, 0, 1)
        a = cache.issued_commands(plan, 0, 0)
        assert cache.issued_commands(plan, 0, 0) is a
        b = cache.issued_commands(plan, 1, 0)
        assert b is not a
        assert all(ic.command.bank == 1 for ic in b)

    def test_cold_plans_share_entries(self, device):
        """A cold plan's schedule reuses the cache's per-site entries."""
        cache = device.controller.plan_cache
        amap = device.amap
        # AND and OR on one subarray both end in AAP(B12, dk): the
        # schedules' last three entries are the same objects.
        and_plan = cache.get(BulkOp.AND, 3, 0, 1)
        or_plan = cache.get(BulkOp.OR, 3, 0, 1)
        for plan in (and_plan, or_plan):
            assert plan.program.primitives[-1] == AAP(amap.b(12), 3)
        and_tail = cache.issued_commands(and_plan, 0, 1)[-3:]
        or_tail = cache.issued_commands(or_plan, 0, 1)[-3:]
        assert all(a is b for a, b in zip(and_tail, or_tail))

        # A plan recompiled after eviction gets the very same entries.
        cache.max_plans = 1
        plan = cache.get(BulkOp.XOR, 3, 0, 1)
        first = cache.issued_commands(plan, 0, 0)
        cache.get(BulkOp.XOR, 4, 0, 1)      # evicts the dk=3 plan
        recompiled = cache.get(BulkOp.XOR, 3, 0, 1)
        assert recompiled is not plan
        again = cache.issued_commands(recompiled, 0, 0)
        assert again is not first and len(again) == len(first)
        assert all(a is b for a, b in zip(first, again))

        # Thrashing the LRU a second time builds no new entry.
        def thrash():
            for op in (BulkOp.AND, BulkOp.OR, BulkOp.XOR, BulkOp.NAND):
                for dk in range(3, 8):
                    for bank in (0, 1):
                        plan = cache.get(op, dk, 0, 1)
                        cache.issued_commands(plan, bank, 0)

        thrash()
        sites, evictions = len(cache._sites), cache.evictions
        thrash()
        assert cache.evictions > evictions
        assert len(cache._sites) == sites

        # A shared entry cannot be rewritten under the plans using it.
        with pytest.raises(dataclasses.FrozenInstanceError):
            and_tail[-1].wordlines_raised = 3

    def test_tra_wordline_counts(self, device):
        """B12 raises three wordlines; the schedule must record it."""
        cache = device.controller.plan_cache
        amap = device.amap
        plan = cache.get(BulkOp.AND, 3, 0, 1)
        acts = [
            ic
            for ic in cache.issued_commands(plan, 0, 0)
            if ic.command.opcode is Opcode.ACTIVATE
        ]
        tra = [ic for ic in acts if ic.command.row == amap.b(12)]
        assert tra and all(ic.wordlines_raised == 3 for ic in tra)


class TestLruBound:
    def test_unbounded_by_default(self, device):
        cache = device.controller.plan_cache
        assert cache.max_plans is None
        for dk in range(3, 14):
            cache.get(BulkOp.AND, dk, 0, 1)
        assert len(cache) == 11 and cache.evictions == 0

    def test_bound_evicts_least_recently_used(self, device):
        cache = device.controller.plan_cache
        cache.max_plans = 2
        a = cache.get(BulkOp.AND, 3, 0, 1)
        cache.get(BulkOp.AND, 4, 0, 1)
        cache.get(BulkOp.AND, 3, 0, 1)      # touch a: now 4 is LRU
        cache.get(BulkOp.AND, 5, 0, 1)      # evicts 4
        assert len(cache) == 2 and cache.evictions == 1
        assert cache.get(BulkOp.AND, 3, 0, 1) is a          # still a hit
        misses = cache.misses
        cache.get(BulkOp.AND, 4, 0, 1)      # recompiles
        assert cache.misses == misses + 1

    def test_setting_bound_trims_immediately(self, device):
        cache = device.controller.plan_cache
        for dk in range(3, 11):
            cache.get(BulkOp.AND, dk, 0, 1)
        cache.max_plans = 3
        assert len(cache) == 3 and cache.evictions == 5
        # The survivors are the most recently used addresses.
        hits = cache.hits
        for dk in (8, 9, 10):
            cache.get(BulkOp.AND, dk, 0, 1)
        assert cache.hits == hits + 3

    def test_eviction_drops_command_schedules(self, device):
        cache = device.controller.plan_cache
        plan = cache.get(BulkOp.AND, 3, 0, 1)
        cache.issued_commands(plan, 0, 0)
        assert any(k[0] == plan.key for k in cache._commands)
        cache.max_plans = 1
        cache.get(BulkOp.AND, 4, 0, 1)      # evicts plan for dk=3
        assert not any(k[0] == plan.key for k in cache._commands)

    def test_eviction_metric_counts(self, device):
        cache = device.controller.plan_cache
        cache.max_plans = 1
        cache.get(BulkOp.AND, 3, 0, 1)
        cache.get(BulkOp.AND, 4, 0, 1)
        family = device.metrics.get("ambit_plan_cache_evictions_total")
        assert family is not None and family.value == 1

    def test_invalid_bound_rejected(self, device):
        with pytest.raises(ValueError):
            device.controller.plan_cache.max_plans = 0
