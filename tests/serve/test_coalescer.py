"""Coalescer: hazard-safe wave planning, backpressure, drain loop."""

import asyncio
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.microprograms import BulkOp
from repro.dram.chip import RowLocation
from repro.obs.metrics import MetricsRegistry
from repro.serve.coalescer import (
    Coalescer,
    OpRequest,
    Wave,
    plan_waves,
)
from repro.serve.protocol import E_BACKPRESSURE, ServeError


def rows(*addresses, bank=0, sub=0):
    return tuple(RowLocation(bank, sub, a) for a in addresses)


def req(op, dst, *srcs, future=None, tenant="t"):
    return OpRequest(
        op=op, tenant=tenant, dst=dst, srcs=tuple(srcs), future=future
    )


# ----------------------------------------------------------------------
# plan_waves: pure hazard logic
# ----------------------------------------------------------------------
def test_disjoint_same_op_fuses_into_one_wave():
    requests = [
        req(BulkOp.AND, rows(3 * i), rows(3 * i + 1), rows(3 * i + 2))
        for i in range(16)
    ]
    waves = plan_waves(requests)
    assert len(waves) == 1
    assert len(waves[0].requests) == 16


def test_mixed_ops_form_one_wave_per_op():
    requests = []
    for i in range(12):
        op = (BulkOp.AND, BulkOp.XOR, BulkOp.NOT)[i % 3]
        base = 10 * i
        srcs = [rows(base + 1)] + (
            [rows(base + 2)] if op.arity >= 2 else []
        )
        requests.append(req(op, rows(base), *srcs))
    waves = plan_waves(requests)
    assert len(waves) == 3
    assert sorted(len(w.requests) for w in waves) == [4, 4, 4]


def test_raw_hazard_splits_waves():
    """B reads A's destination: B must run in a later wave."""
    a = req(BulkOp.AND, rows(0), rows(1), rows(2))
    b = req(BulkOp.AND, rows(3), rows(0), rows(4))
    waves = plan_waves([a, b])
    assert len(waves) == 2
    assert waves[0].requests == [a]
    assert waves[1].requests == [b]


def test_war_hazard_splits_waves():
    """B writes what A reads: swapping them would corrupt A's input."""
    a = req(BulkOp.AND, rows(0), rows(1), rows(2))
    b = req(BulkOp.AND, rows(1), rows(3), rows(4))
    waves = plan_waves([a, b])
    assert [w.requests for w in waves] == [[a], [b]]


def test_waw_hazard_preserves_program_order():
    a = req(BulkOp.AND, rows(0), rows(1), rows(2))
    b = req(BulkOp.OR, rows(0), rows(3), rows(4))
    waves = plan_waves([a, b])
    assert [w.requests for w in waves] == [[a], [b]]


def test_independent_request_joins_earliest_legal_wave():
    """A request conflicting with nothing fuses into wave 0 of its op,
    even when queued after a long dependency chain."""
    chain = [
        req(BulkOp.AND, rows(0), rows(1), rows(2)),
        req(BulkOp.AND, rows(3), rows(0), rows(4)),   # RAW on 0
        req(BulkOp.AND, rows(5), rows(3), rows(6)),   # RAW on 3
    ]
    free = req(BulkOp.AND, rows(100), rows(101), rows(102))
    waves = plan_waves(chain + [free])
    assert len(waves) == 3
    assert free in waves[0].requests


def test_dependent_request_lands_after_its_barrier():
    """A same-op wave exists *before* the conflict: it must be skipped."""
    a = req(BulkOp.AND, rows(0), rows(1), rows(2))
    b = req(BulkOp.XOR, rows(5), rows(0), rows(6))    # reads 0 -> after a
    c = req(BulkOp.XOR, rows(7), rows(5), rows(8))    # reads 5 -> after b
    waves = plan_waves([a, b, c])
    assert len(waves) == 3
    assert waves[1].requests == [b]
    assert waves[2].requests == [c]


def test_wave_operands_concatenate_in_request_order():
    a = req(BulkOp.XOR, rows(0, 1), rows(2, 3), rows(4, 5))
    b = req(BulkOp.XOR, rows(6), rows(7), rows(8))
    wave = Wave(op=BulkOp.XOR)
    wave.add(a)
    wave.add(b)
    dst, (src1, src2, src3) = wave.operands()
    assert [loc.address for loc in dst] == [0, 1, 6]
    assert [loc.address for loc in src1] == [2, 3, 7]
    assert [loc.address for loc in src2] == [4, 5, 8]
    assert src3 is None


def test_unary_wave_pads_missing_sources():
    wave = Wave(op=BulkOp.NOT)
    wave.add(req(BulkOp.NOT, rows(0), rows(1)))
    _, (src1, src2, src3) = wave.operands()
    assert [loc.address for loc in src1] == [1]
    assert src2 is None and src3 is None


# ----------------------------------------------------------------------
# Coalescer: admission + drain
# ----------------------------------------------------------------------
def test_backpressure_is_synchronous_and_counted():
    async def scenario():
        metrics = MetricsRegistry()
        coalescer = Coalescer(
            runner=lambda waves: [],
            executor=None,
            metrics=metrics,
            max_queue=2,
        )
        # Drain loop deliberately not started: the queue cannot empty.
        loop = asyncio.get_event_loop()
        coalescer.submit(req(BulkOp.AND, rows(0), rows(1), rows(2),
                             future=loop.create_future()))
        coalescer.submit(req(BulkOp.AND, rows(3), rows(4), rows(5),
                             future=loop.create_future()))
        with pytest.raises(ServeError) as excinfo:
            coalescer.submit(req(BulkOp.AND, rows(6), rows(7), rows(8),
                                 future=loop.create_future()))
        assert excinfo.value.code == E_BACKPRESSURE
        family = metrics.get("ambit_serve_backpressure_total")
        assert family.value == 1
        metrics.collect()
        assert metrics.get("ambit_serve_queue_depth").value == 2

    asyncio.run(scenario())


def _drain_scenario(max_batch_ops):
    """Submit a pipelined burst; return (wave batches seen, metrics)."""

    async def scenario():
        metrics = MetricsRegistry()
        batches = []

        def runner(waves):
            batches.append(waves)
            return [
                (request, None)
                for wave in waves
                for request in wave.requests
            ]

        with ThreadPoolExecutor(max_workers=1) as executor:
            coalescer = Coalescer(
                runner=runner,
                executor=executor,
                metrics=metrics,
                max_batch_ops=max_batch_ops,
            )
            coalescer.start()
            loop = asyncio.get_event_loop()
            futures = []
            for i in range(8):
                future = loop.create_future()
                futures.append(future)
                coalescer.submit(req(
                    BulkOp.AND, rows(3 * i), rows(3 * i + 1),
                    rows(3 * i + 2), future=future,
                ))
            await asyncio.gather(*futures)
            await coalescer.close()
        return batches, metrics

    return asyncio.run(scenario())


def test_drain_fuses_a_pipelined_burst():
    batches, metrics = _drain_scenario(max_batch_ops=512)
    fused = sum(
        len(wave.requests)
        for waves in batches
        for wave in waves
    )
    assert fused == 8
    # The first wave may dispatch alone, but the burst queued behind it
    # must fuse: far fewer batches than requests, and the coalesced
    # counter saw at least one multi-request wave.
    assert len(batches) < 8
    assert metrics.get("ambit_serve_coalesced_batches_total").value >= 1
    assert metrics.get("ambit_serve_batches_total").value == sum(
        len(waves) for waves in batches
    )


def test_coalesce_off_dispatches_one_request_per_batch():
    batches, metrics = _drain_scenario(max_batch_ops=1)
    assert len(batches) == 8
    assert all(
        len(waves) == 1 and len(waves[0].requests) == 1
        for waves in batches
    )
    assert metrics.get("ambit_serve_coalesced_batches_total").value == 0


def test_runner_errors_reach_every_future():
    async def scenario():
        boom = RuntimeError("device on fire")

        with ThreadPoolExecutor(max_workers=1) as executor:
            coalescer = Coalescer(
                runner=lambda waves: (_ for _ in ()).throw(boom),
                executor=executor,
            )
            coalescer.start()
            loop = asyncio.get_event_loop()
            future = loop.create_future()
            coalescer.submit(req(BulkOp.AND, rows(0), rows(1), rows(2),
                                 future=future))
            with pytest.raises(RuntimeError, match="device on fire"):
                await future
            await coalescer.close()

    asyncio.run(scenario())


def test_per_request_errors_are_routed_individually():
    async def scenario():
        fault = ServeError("fault", "unrecovered")

        def runner(waves):
            outcomes = []
            for wave in waves:
                for i, request in enumerate(wave.requests):
                    outcomes.append(
                        (request, fault if i == 0 else None)
                    )
            return outcomes

        with ThreadPoolExecutor(max_workers=1) as executor:
            coalescer = Coalescer(runner=runner, executor=executor)
            coalescer.start()
            loop = asyncio.get_event_loop()
            first, second = loop.create_future(), loop.create_future()
            coalescer.submit(req(BulkOp.AND, rows(0), rows(1), rows(2),
                                 future=first))
            coalescer.submit(req(BulkOp.AND, rows(3), rows(4), rows(5),
                                 future=second))
            with pytest.raises(ServeError):
                await first
            assert await second is None
            await coalescer.close()

    asyncio.run(scenario())
