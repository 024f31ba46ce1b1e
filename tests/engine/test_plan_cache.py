"""Plan templates: compile each op shape once, bind rows everywhere."""

import dataclasses
import itertools
from collections import Counter

import pytest

import repro.compile.ops as compile_ops
from repro.compile import compile_expr, parse_expr
from repro.core.device import AmbitDevice
from repro.core.microprograms import BulkOp, compile_op
from repro.core.primitives import AAP
from repro.dram.chip import RowLocation
from repro.dram.commands import Opcode, canonical_tally
from repro.dram.geometry import small_test_geometry
from repro.dram.timing import ddr3_1600, ddr3_2133, ddr4_2400
from repro.errors import AddressError
from tests.golden.regen import COMPILED_CASES

#: The golden compiled ops; between them they have scratch rows and
#: single- and dual-DCC steps.
COMPILED_OPS = tuple(
    compile_expr(parse_expr(text), name=name) for name, text in COMPILED_CASES
)

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
        assert first == second and first.template is second.template
        assert cache.misses == 1 and cache.hits == 1

    def test_distinct_addresses_share_one_template(self, device):
        cache = device.controller.plan_cache
        first = cache.get(BulkOp.AND, 3, 0, 1)
        second = cache.get(BulkOp.AND, 4, 0, 1)
        assert cache.misses == 1 and cache.hits == 1 and len(cache) == 1
        assert first.template is second.template
        assert second.program == compile_op(device.amap, BulkOp.AND, 4, 0, 1)

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
        totals = plan.totals
        assert totals.aaps == program.num_aap
        assert totals.aps == program.num_ap
        assert totals.num_commands == 3 * totals.aaps + 2 * totals.aps

    @pytest.mark.parametrize(
        "op", tuple(BulkOp) + COMPILED_OPS, ids=lambda op: op.value
    )
    def test_plans_of_one_shape_share_costs_of_their_own_program(
        self, device, op
    ):
        """Latencies and totals are shared per plan shape, and every
        plan's still equal what its own program costs -- with data,
        control and (for COPY, which takes any source) B-group rows."""
        controller = device.controller
        cache, amap = controller.plan_cache, controller.amap
        sources = [0, 1, 2, 3, amap.c(0), amap.c(1)]
        if op is BulkOp.COPY:
            sources += [amap.b(i) for i in range(16)]
        temps = tuple(range(8, 8 + op.num_temps))
        data_plans = []
        for dk in (4, 5, 6):
            for first in sources:
                srcs = (first, 1, 2, 3)[:op.arity]
                if first in srcs[1:]:
                    continue
                for dcc in (0, 1):
                    plan = cache.get(op, dk, *srcs, temps=temps, dcc=dcc)
                    latencies = tuple(
                        p.latency_ns(
                            controller.timing, amap, controller.split_decoder
                        )
                        for p in plan.program.primitives
                    )
                    assert plan.latencies_ns == latencies
                    assert plan.total_ns == plan.totals.ns == sum(latencies)
                    assert plan.totals.aaps == plan.program.num_aap
                    assert plan.totals.aps == plan.program.num_ap
                    schedule = cache.issued_commands(plan, 0, 0)
                    assert plan.totals.commands == canonical_tally(Counter(
                        (ic.command.opcode, ic.wordlines_raised)
                        for ic in schedule
                    ))
                    if first < amap.data_rows and dcc == 0:
                        data_plans.append(plan)
        assert len({id(plan.totals) for plan in data_plans}) == 1

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
        """The bound flat schedule is byte-identical to real execution."""
        controller = device.controller
        dst = RowLocation(0, 1, 3)
        with device.chip.trace.capture() as executed:
            device.bbop_row(
                op,
                dst,
                RowLocation(0, 1, 0),
                RowLocation(0, 1, 1) if op.arity >= 2 else None,
                RowLocation(0, 1, 2) if op.arity == 3 else None,
            )
        plan = controller.plan_cache.get(
            op, 3, 0,
            1 if op.arity >= 2 else None,
            2 if op.arity == 3 else None,
        )
        synthesized = controller.plan_cache.issued_commands(plan, 0, 1)
        assert len(synthesized) == len(executed) == plan.totals.num_commands
        for real, synth in zip(executed, synthesized):
            assert synth.command == real.command
            assert synth.wordlines_raised == real.wordlines_raised
            assert synth.onto_open_row == real.onto_open_row
            assert synth.write_value is None
        # The totals charged per fused row are the walk's exact tally.
        assert plan.totals.commands == canonical_tally(Counter(
            (e.command.opcode, e.wordlines_raised) for e in executed
        ))

    def test_schedule_is_cached_per_subarray(self, device):
        """A binding's schedule picks the entries cached for its
        subarray: the same objects every time, other ones elsewhere."""
        cache = device.controller.plan_cache
        plan = cache.get(BulkOp.AND, 3, 0, 1)
        a = cache.issued_commands(plan, 0, 0)
        again = cache.issued_commands(plan, 0, 0)
        assert all(x is y for x, y in zip(a, again)) and len(a) == len(again)
        b = cache.issued_commands(plan, 1, 0)
        assert not any(x is y for x, y in zip(a, b))
        assert all(ic.command.bank == 1 for ic in b)

    def test_cold_plans_share_entries(self, device):
        """A schedule reuses the cache's per-site entries."""
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

        # Binding the same rows again builds no new entry.
        def bind_all():
            for op in (BulkOp.AND, BulkOp.OR, BulkOp.XOR, BulkOp.NAND):
                for dk in range(3, 8):
                    for bank in (0, 1):
                        plan = cache.get(op, dk, 0, 1)
                        cache.issued_commands(plan, bank, 0)

        bind_all()
        sites = len(cache._sites)
        bind_all()
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


class TestTemplates:
    """One template per op shape; any binding of it equals compiling
    the binding directly, and walking it executes what it schedules."""

    @pytest.mark.parametrize(
        "op", tuple(BulkOp) + COMPILED_OPS, ids=lambda op: op.value
    )
    def test_bound_template_equals_compiled_program(self, device, op):
        controller = device.controller
        cache, amap = controller.plan_cache, controller.amap
        temps = tuple(range(10, 10 + op.num_temps))
        srcs = tuple(range(op.arity))
        bindings = [(3, srcs)]                              # data rows
        bindings.append((3, (amap.c(1),) + srcs[1:]))       # C-group source
        bindings.append((3, (amap.c(0),) + srcs[1:]))       # = a control row
        bindings.append((3, (amap.b(12),) + srcs[1:]))      # B-group source
        bindings.append((amap.b(4), srcs))                  # B-group dst
        bindings.append((srcs[0], srcs))                    # dst aliases src
        if op.arity >= 2:
            bindings.append((3, (srcs[1], srcs[1]) + srcs[2:]))
        for dk, srcs in bindings:
            for dcc in (0, 1):
                rows = (dk, *srcs, *temps)
                try:
                    expected = op.program(amap, dk, srcs, temps, dcc)
                except AddressError:
                    expected = None
                # A binding of the same shape on other data rows
                # compiles the template first, so the case itself is a
                # pure template hit.
                warm = tuple(
                    r + 5 if 0 <= r < 10 else r for r in rows
                )
                try:
                    cache.get(op, warm[0], *warm[1:1 + op.arity],
                              temps=warm[1 + op.arity:], dcc=dcc)
                except AddressError:
                    pass
                misses = cache.misses
                if expected is None:
                    with pytest.raises(AddressError):
                        cache.get(op, dk, *srcs, temps=temps, dcc=dcc)
                    continue
                plan = cache.get(op, dk, *srcs, temps=temps, dcc=dcc)
                assert cache.misses == misses, (rows, dcc)
                assert plan.program == expected, (rows, dcc)
                schedule = cache.issued_commands(plan, 1, 1)
                with device.chip.trace.capture() as executed:
                    controller.run_plan(plan, 1, 1)
                assert list(schedule) == executed, (rows, dcc)
                assert plan.totals.commands == canonical_tally(Counter(
                    (ic.command.opcode, ic.wordlines_raised)
                    for ic in executed
                ))

    @pytest.mark.parametrize(
        "op", tuple(BulkOp) + COMPILED_OPS, ids=lambda op: op.value
    )
    def test_aliasing_checks_match_program(self, device, op):
        """Every pair of bound rows may alias exactly when compiling
        the binding accepts it."""
        cache, amap = device.controller.plan_cache, device.amap
        width = 1 + op.arity + op.num_temps
        base = tuple(range(3, 3 + width))
        cache.get(op, base[0], *base[1:1 + op.arity],
                  temps=base[1 + op.arity:])
        for i, j in itertools.combinations(range(width), 2):
            rows = list(base)
            rows[j] = rows[i]
            dk, srcs, temps = rows[0], rows[1:1 + op.arity], rows[1 + op.arity:]
            try:
                op.program(amap, dk, srcs, temps)
                allowed = True
            except AddressError:
                allowed = False
            assert ((i, j) not in op.distinct_rows()) == allowed, (i, j)
            if allowed:
                cache.get(op, dk, *srcs, temps=temps)
            else:
                with pytest.raises(AddressError):
                    cache.get(op, dk, *srcs, temps=temps)

    def test_equal_compiled_ops_share_one_template(self, device, monkeypatch):
        text = "(a & b) | ~c"
        first = compile_expr(parse_expr(text), name="same")
        monkeypatch.setattr(compile_ops, "_CACHE", {})
        second = compile_expr(parse_expr(text), name="same")
        assert first is not second
        assert first == second and hash(first) == hash(second)
        cache = device.controller.plan_cache
        temps = tuple(range(8, 8 + first.num_temps))
        a = cache.get(first, 3, 0, 1, 2, temps=temps)
        b = cache.get(second, 4, 0, 1, 2, temps=temps)
        assert a.template is b.template and len(cache) == 1

    @pytest.mark.parametrize(
        "timing", (ddr3_1600, ddr3_2133, ddr4_2400),
        ids=lambda t: t().name,
    )
    def test_group_latency_sums_like_a_per_row_loop(self, timing):
        device = AmbitDevice(geometry=small_test_geometry(), timing=timing())
        cache = device.controller.plan_cache
        for op in BulkOp:
            template = cache.get(op, 3, *range(op.arity)).template
            total = 0.0
            for rows in range(1, 300):
                total += template.totals.ns
                assert template.total_ns(rows) == total, (op, rows)

    @pytest.mark.parametrize(
        "timing", (ddr3_1600, ddr3_2133, ddr4_2400),
        ids=lambda t: t().name,
    )
    def test_fused_group_accounts_like_a_per_row_loop(self, timing):
        """busy_ns, bank busy time, the clock and elapsed_ns of a fused
        batch equal summing every row's latency one row at a time."""
        geo = small_test_geometry(rows=64, row_bytes=64, banks=2)
        device = AmbitDevice(geometry=geo, timing=timing())
        rows = 40
        dst = [RowLocation(i % 2, 0, 4 + i // 2) for i in range(rows)]
        src1 = [RowLocation(i % 2, 0, 0) for i in range(rows)]
        src2 = [RowLocation(i % 2, 0, 1) for i in range(rows)]
        report = device.engine.run_rows(BulkOp.XOR, dst, src1, src2)
        assert report.fused_rows == rows
        ns = device.controller.plan_cache.get(BulkOp.XOR, 4, 0, 1).total_ns
        group = 0.0
        for _ in range(rows // 2):
            group += ns
        stats = device.controller.stats
        assert stats.busy_ns == 0.0 + group + group
        assert dict(stats.bank_busy_ns) == {0: group, 1: group}
        assert device.chip.clock_ns == 0.0 + group + group
        assert device.elapsed_ns == group

    def test_reserved_rows_take_one_template_per_row(self, device):
        """A group binding a C-group row plans row by row, in order;
        a group of data rows plans once."""
        cache, amap = device.controller.plan_cache, device.amap
        rows = [[3, 0, 1], [4, amap.c(1), 1], [5, 0, 1]]
        templates = cache.lookup(BulkOp.AND, rows, 2)
        assert len(templates) == 3
        assert templates[0] is templates[2] is not templates[1]
        assert cache.misses == 2 and cache.hits == 1
        data = cache.lookup(BulkOp.AND, [[3, 0, 1], [4, 0, 1]], 2)
        assert data == [templates[0]] and cache.hits == 3

    def test_templates_are_few_and_never_evicted(self, device):
        cache = device.controller.plan_cache
        for dk in range(3, 14):
            for op in BulkOp:
                cache.get(op, dk, *range(op.arity))
        assert len(cache) == len(BulkOp) and cache.evictions == 0
        assert cache.misses == len(BulkOp)
        assert device.metrics.get("ambit_plan_cache_evictions_total") is None
