"""End-to-end socket tests for the bulk-bitwise service.

Every test boots a real :class:`BulkBitwiseServer` on an ephemeral
port, speaks the NDJSON protocol over a TCP connection, and verifies
results bit-for-bit against a numpy model -- the same contract the
load generator enforces at scale.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.core.device import AmbitDevice
from repro.serve.protocol import pack_bits, unpack_bits
from repro.serve.server import BulkBitwiseServer, ServeConfig

BITS = 1000  # two 512-bit rows: exercises striping and padding
TENANT = "t0"

OP_MODELS = {
    "and": (2, lambda a, b: a & b),
    "or": (2, lambda a, b: a | b),
    "xor": (2, lambda a, b: a ^ b),
    "nand": (2, lambda a, b: ~(a & b)),
    "nor": (2, lambda a, b: ~(a | b)),
    "xnor": (2, lambda a, b: ~(a ^ b)),
    "not": (1, lambda a: ~a),
    "copy": (1, lambda a: a),
    "maj": (3, lambda a, b, c: (a & b) | (b & c) | (a & c)),
}


def small_config(**overrides):
    defaults = dict(banks=2, rows=32, row_bytes=64)
    defaults.update(overrides)
    return ServeConfig(**defaults)


class Client:
    """Minimal NDJSON client; one pipelined TCP connection."""

    def __init__(self, port):
        self.port = port
        self.reader = self.writer = None
        self._next_id = 0

    async def __aenter__(self):
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", self.port
        )
        return self

    async def __aexit__(self, *exc):
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def rpc(self, cmd, **fields):
        self._next_id += 1
        request = {"cmd": cmd, "id": self._next_id, **fields}
        self.writer.write((json.dumps(request) + "\n").encode())
        await self.writer.drain()
        response = json.loads(await self.reader.readline())
        assert response.get("id") == self._next_id
        return response

    async def expect_error(self, code, cmd, **fields):
        response = await self.rpc(cmd, **fields)
        assert response["ok"] is False, response
        assert response["error"] == code, response
        return response


async def make_vectors(client, names, seed=0, bits=BITS):
    """Create + write named random vectors; returns their models."""
    rng = np.random.default_rng(seed)
    models = {}
    for name in names:
        vector = rng.integers(0, 2, size=bits).astype(bool)
        response = await client.rpc(
            "create", tenant=TENANT, name=name, bits=bits
        )
        assert response["ok"], response
        response = await client.rpc(
            "write", tenant=TENANT, name=name, data=pack_bits(vector)
        )
        assert response["ok"], response
        models[name] = vector
    return models


async def read_vector(client, name, bits=BITS):
    response = await client.rpc("read", tenant=TENANT, name=name)
    assert response["ok"], response
    return unpack_bits(response["data"], bits)


def run(coro_fn, config=None):
    async def main():
        server = BulkBitwiseServer(config or small_config())
        await server.start()
        try:
            await coro_fn(server)
        finally:
            await server.close()

    asyncio.run(main())


# ----------------------------------------------------------------------
@pytest.mark.parametrize("jobs", [1, 2], ids=lambda jobs: f"jobs={jobs}")
def test_all_nine_ops_bit_exact(jobs):
    async def scenario(server):
        async with Client(server.port) as client:
            models = await make_vectors(client, ("a", "b", "c", "d"),
                                        seed=42)
            for op_name, (arity, model) in sorted(OP_MODELS.items()):
                srcs = ("a", "b", "c")[:arity]
                request = {
                    f"src{i + 1}": name for i, name in enumerate(srcs)
                }
                response = await client.rpc(
                    "op", tenant=TENANT, op=op_name, dst="d", **request
                )
                assert response["ok"], (op_name, response)
                models["d"] = model(*(models[s] for s in srcs))
                got = await read_vector(client, "d")
                assert np.array_equal(got, models["d"]), op_name
            # Sources were never clobbered.
            for name in ("a", "b", "c"):
                assert np.array_equal(
                    await read_vector(client, name), models[name]
                )
        # ``jobs`` is accepted and ignored: every value serves from one
        # in-process device.
        assert type(server.device) is AmbitDevice

    run(scenario, small_config(jobs=jobs))


def test_create_zero_fills_and_delete_frees():
    async def scenario(server):
        async with Client(server.port) as client:
            response = await client.rpc(
                "create", tenant=TENANT, name="z", bits=BITS
            )
            assert response["ok"] and response["rows"] == 2
            assert not (await read_vector(client, "z")).any()

            free_before = server.allocator.slots_free
            response = await client.rpc(
                "delete", tenant=TENANT, name="z"
            )
            assert response["ok"]
            assert server.allocator.slots_free == free_before + 1
            await client.expect_error(
                "no_such_vector", "read", tenant=TENANT, name="z"
            )

    run(scenario)


def test_delete_forgets_the_vectors_shadow_rows():
    """A deleted vector's rows leave the session's shadow; a vector
    created into the same slots is verified against its zero fill."""
    async def scenario(server):
        session = server.session
        words = server.device.geometry.subarray.words_per_row
        junk = np.full(words, np.uint64(0xA5A5A5A5A5A5A5A5))
        async with Client(server.port) as client:
            await make_vectors(client, ("v",), seed=4)
            rows = server.tenants.lookup(TENANT, "v").rows
            assert (await client.rpc("delete", tenant=TENANT, name="v"))["ok"]
            for loc in rows:
                server.device.write_row(loc, junk)
            assert session.verify_all() == []

            response = await client.rpc(
                "create", tenant=TENANT, name="w", bits=BITS
            )
            assert response["ok"]
            assert server.tenants.lookup(TENANT, "w").rows == rows
            assert session.verify_all() == []
            server.device.write_row(rows[0], junk)
            assert session.verify_all() == [
                (rows[0].bank, rows[0].subarray, rows[0].address)
            ]

    run(scenario)


def test_error_paths():
    async def scenario(server):
        async with Client(server.port) as client:
            await make_vectors(client, ("a", "b"), seed=1)
            await client.rpc("create", tenant=TENANT, name="tiny", bits=8)

            await client.expect_error("unknown_command", "reboot")
            await client.expect_error(
                "protocol", "create", tenant=TENANT, name="x", bits=True
            )
            await client.expect_error(
                "protocol", "op", tenant=TENANT, op="teleport",
                dst="a", src1="b",
            )
            await client.expect_error(
                "vector_exists", "create", tenant=TENANT, name="a",
                bits=BITS,
            )
            await client.expect_error(
                "no_such_vector", "op", tenant=TENANT, op="xor",
                dst="a", src1="ghost", src2="b",
            )
            # Arity and width violations are shape errors.
            await client.expect_error(
                "shape_mismatch", "op", tenant=TENANT, op="xor",
                dst="a", src1="b",
            )
            await client.expect_error(
                "shape_mismatch", "op", tenant=TENANT, op="xor",
                dst="a", src1="b", src2="tiny",
            )
            await client.expect_error(
                "shape_mismatch", "write", tenant=TENANT, name="a",
                data="ab",
            )
            # Tenants are namespaces: t1 cannot see t0's vectors.
            await client.expect_error(
                "no_such_vector", "read", tenant="other", name="a"
            )
            # A malformed line gets an error response, not a hangup.
            client.writer.write(b"this is not json\n")
            await client.writer.drain()
            response = json.loads(await client.reader.readline())
            assert response["ok"] is False
            assert response["error"] == "protocol"
            # The connection still works afterwards.
            response = await client.rpc("ping")
            assert response["pong"] is True

    run(scenario)


def test_pipelined_ops_coalesce_and_stats_see_it():
    async def scenario(server):
        async with Client(server.port) as client:
            models = await make_vectors(
                client, ("a", "b", "d0", "d1", "d2", "d3"), seed=2
            )
            # Pipeline a burst of disjoint-destination xors without
            # awaiting: they queue behind one wave and must fuse.
            burst = []
            for repeat in range(4):
                for dst in ("d0", "d1", "d2", "d3"):
                    burst.append({
                        "cmd": "op", "tenant": TENANT, "op": "xor",
                        "dst": dst, "src1": "a", "src2": "b",
                        "id": 10_000 + len(burst),
                    })
            payload = b"".join(
                (json.dumps(request) + "\n").encode() for request in burst
            )
            client.writer.write(payload)
            await client.writer.drain()
            responses = [
                json.loads(await client.reader.readline())
                for _ in burst
            ]
            assert all(r["ok"] for r in responses), responses

            expected = models["a"] ^ models["b"]
            for dst in ("d0", "d1", "d2", "d3"):
                assert np.array_equal(
                    await read_vector(client, dst), expected
                )

            response = await client.rpc("stats")
            totals = response["totals"]
            assert totals["batches"] >= 1
            assert totals["coalesced_batches"] >= 1
            assert totals["batches"] < len(burst)
            assert "ambit_serve_requests_total" in response["metrics"]
            assert totals["faults_unrecovered"] == 0

    run(scenario)


def test_coalesced_in_place_waves_verify():
    """A pipelined burst of in-place requests, four per op over all nine
    ops (``d = op(d, a, b)``; copy reads ``a``, as a row cannot copy
    onto itself), coalesces into waves whose rows read their own
    destinations and share sources.  Such rows are independent: every
    row verifies, and nothing is rejected or recovered."""
    async def scenario(server):
        session = server.session
        calls = []
        run_rows = session.run_rows

        def spy(op, dst, *srcs, **kwargs):
            in_place = any(
                d == s for col in srcs if col for d, s in zip(dst, col)
            )
            calls.append((len(dst), in_place))
            return run_rows(op, dst, *srcs, **kwargs)

        session.run_rows = spy
        dsts = ("d0", "d1", "d2", "d3")
        async with Client(server.port) as client:
            models = await make_vectors(client, ("a", "b") + dsts, seed=9)
            burst = []
            for op_name, (arity, model) in sorted(OP_MODELS.items()):
                for dst in dsts:
                    srcs = ("a",) if op_name == "copy" else (dst, "a", "b")
                    srcs = srcs[:arity]
                    burst.append({
                        "cmd": "op", "tenant": TENANT, "op": op_name,
                        "dst": dst, "id": 20_000 + len(burst),
                        **{f"src{i + 1}": s for i, s in enumerate(srcs)},
                    })
                    models[dst] = model(*(models[s] for s in srcs))
            client.writer.write(b"".join(
                (json.dumps(request) + "\n").encode() for request in burst
            ))
            await client.writer.drain()
            responses = [
                json.loads(await client.reader.readline()) for _ in burst
            ]
            assert all(r["ok"] for r in responses), responses
            for dst in dsts:
                assert np.array_equal(
                    await read_vector(client, dst), models[dst]
                ), dst
        assert any(rows > 1 and in_place for rows, in_place in calls)
        assert not session.log and session.verify_all() == []

    run(scenario)


def test_stats_runs_the_collectors_once():
    async def scenario(server):
        runs = []
        server.metrics.register_collector(lambda: runs.append(1))
        async with Client(server.port) as client:
            await make_vectors(client, ("a",))
            for expected in (1, 2):
                response = await client.rpc("stats")
                assert response["ok"], response
                assert len(runs) == expected

    run(scenario)


def test_quota_rejections_surface_on_the_wire():
    async def scenario(server):
        async with Client(server.port) as client:
            for i in range(2):
                response = await client.rpc(
                    "create", tenant=TENANT, name=f"v{i}", bits=8
                )
                assert response["ok"], response
            await client.expect_error(
                "quota", "create", tenant=TENANT, name="v2", bits=8
            )
            response = await client.rpc("stats")
            assert response["totals"]["quota_rejections"] == 1

    run(scenario, config=small_config(max_vectors=2))


def test_fault_injection_recovers_under_live_traffic():
    async def scenario(server):
        async with Client(server.port) as client:
            models = await make_vectors(client, ("a", "b", "d"), seed=3)
            for i in range(40):
                response = await client.rpc(
                    "op", tenant=TENANT, op="xor", dst="d",
                    src1="a", src2="b",
                )
                if response["ok"]:
                    models["d"] = models["a"] ^ models["b"]
                else:
                    # An unrecovered fault is allowed -- but it must be
                    # *reported*, never silent corruption.
                    assert response["error"] == "fault"
            response = await client.rpc("stats")
            totals = response["totals"]
            assert server.injector is not None
            assert len(server.injector.applied) >= 1
            assert totals["faults_recovered"] >= 1
            # Recovered faults leave no trace in the data.
            got = await read_vector(client, "d")
            if totals["faults_unrecovered"] == 0:
                assert np.array_equal(got, models["d"])

    run(
        scenario,
        config=small_config(fault_rate=0.08, fault_ops=64, seed=5),
    )
