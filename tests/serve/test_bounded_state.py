"""Serving state stays bounded however long the service runs.

Vectors are created and deleted for a few hundred waves, so each wave
binds fresh row addresses.  The plan cache holds one template per op
shape (op and DCC route), whatever the addresses; the command trace
keeps counts only, no command list, while nobody captures commands;
and the recovery log is a ring whose recovered and unrecovered counts
stay exact past its bound, with every unrecovered destination still
answered ``fault``.
"""

import numpy as np

import repro.faults.recover as recover
from repro.core.microprograms import BulkOp
from repro.dram.chip import RowLocation
from tests.serve.test_server import (
    BITS,
    OP_MODELS,
    TENANT,
    Client,
    make_vectors,
    read_vector,
    run,
    small_config,
)

#: Op shapes a server can use: every op on either DCC route.
MAX_SHAPES = len(BulkOp) * 2


def _lists_held(trace):
    """Lengths of every list the command trace holds."""
    return [len(v) for v in vars(trace).values() if isinstance(v, list)]


def test_serving_state_stays_bounded_under_churn():
    async def scenario(server):
        cache = server.device.controller.plan_cache
        trace = server.device.chip.trace
        rng = np.random.default_rng(17)
        async with Client(server.port) as client:
            models = await make_vectors(client, ("v0", "v1", "v2", "v3"))
            live = list(models)
            for wave in range(300):
                # Delete a random live vector and create the next one:
                # the allocator hands its rows out again in another
                # combination with the other live vectors.
                gone = live.pop(int(rng.integers(len(live))))
                response = await client.rpc(
                    "delete", tenant=TENANT, name=gone
                )
                assert response["ok"], response
                del models[gone]
                name = f"v{wave + 4}"
                models.update(await make_vectors(
                    client, (name,), seed=wave, bits=BITS
                ))
                op_name = sorted(OP_MODELS)[wave % len(OP_MODELS)]
                arity, model = OP_MODELS[op_name]
                srcs = [live[int(i)] for i in rng.integers(len(live), size=3)]
                response = await client.rpc(
                    "op", tenant=TENANT, op=op_name, dst=name,
                    **{f"src{i + 1}": s for i, s in enumerate(srcs[:arity])},
                )
                assert response["ok"], response
                models[name] = model(*(models[s] for s in srcs[:arity]))
                live.append(name)

                assert len(cache) <= MAX_SHAPES, wave
                assert not trace.capturing
                assert not any(_lists_held(trace)), wave
            for name in live:
                assert np.array_equal(
                    await read_vector(client, name), models[name]
                )
        server.metrics.collect()
        gauge = server.metrics.get("ambit_plan_cache_plans")
        assert gauge.value == len(cache) <= MAX_SHAPES
        assert cache.evictions == 0 and cache.hits > cache.misses

    run(scenario)


def test_unrecovered_waves_answer_fault_past_the_log_bound(monkeypatch):
    """With recovery off, a stuck destination row is an unrecovered
    fault every wave; the log keeps only its last records, yet each
    wave still answers ``fault`` and the counts stay exact."""
    monkeypatch.setattr(recover, "LOG_HISTORY", 3)

    async def scenario(server):
        session = server.session
        async with Client(server.port) as client:
            await make_vectors(client, ("a", "b", "d"), seed=3)
            handle = server.tenants.lookup(TENANT, "d")
            for loc in handle.rows:
                server.device.chip.bank(loc.bank).subarray(
                    loc.subarray
                ).inject_stuck_row(
                    loc.address,
                    np.zeros(server.device.geometry.subarray.words_per_row,
                             dtype=np.uint64),
                )
            before = session.unrecovered_count
            for _ in range(4):
                response = await client.expect_error(
                    "fault", "op", tenant=TENANT, op="nand", dst="d",
                    src1="a", src2="b",
                )
                assert "unrecovered" in response["message"]
            # One unrecovered outcome per stuck row per wave.
            assert session.unrecovered_count == before + 4 * len(handle.rows)
            assert len(session.log) == 3 < session.log_total
            assert session.recovered_count == 0

    run(scenario, config=small_config(recovery=False))


def test_recovery_log_ring_keeps_exact_counts(monkeypatch):
    from repro.core.device import AmbitDevice
    from repro.dram.geometry import small_test_geometry

    monkeypatch.setattr(recover, "LOG_HISTORY", 4)
    device = AmbitDevice(geometry=small_test_geometry(rows=40, row_bytes=64))
    session = recover.FaultTolerantSession(device)
    session.add_spares(0, 0, (18, 19, 20))
    words = device.geometry.subarray.words_per_row
    ones = np.full(words, np.iinfo(np.uint64).max, dtype=np.uint64)
    subarray = device.chip.bank(0).subarray(0)
    for address in range(8):
        subarray.inject_stuck_row(address, np.zeros(words, dtype=np.uint64))
    marks = []
    for address in range(8):
        marks.append(session.log_total)
        session.write_row(RowLocation(0, 0, address), ones)
    # Three spares take the first three rows; the rest stay stuck.
    assert session.recovered_count == 3
    assert session.unrecovered_count == 5
    assert session.log_total == 8 and len(session.log) == 4
    assert [r.address for r in session.log] == [4, 5, 6, 7]
    assert [r.address for r in session.log_since(marks[-1])] == [7]
    assert [r.address for r in session.log_since(marks[5])] == [5, 6, 7]
    # Records already pushed out of the ring are gone.
    assert [r.address for r in session.log_since(0)] == [4, 5, 6, 7]
