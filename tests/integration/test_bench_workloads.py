"""The benchmark's serve workloads run on an in-process device.

``bench/devproc.py`` builds its server as
``BulkBitwiseServer(ServeConfig(**spec.serve_config()))`` for each
``ServeSpec`` in ``bench/workloads.py``.  This test loads that file the
way ``test_bench_layers.py`` loads ``bench/layers.py`` and builds the
same server for every serve workload: it must serve from one
:class:`~repro.core.device.AmbitDevice` and read an op's result back
bit-exact, whatever ``jobs`` the workload passes.
"""

import asyncio
import importlib.util
import pathlib
import sys

import numpy as np
import pytest

from repro.core.device import AmbitDevice
from repro.serve.protocol import MAX_LINE_BYTES
from repro.serve.server import ServeConfig
from tests.serve.test_server import (
    TENANT,
    Client,
    make_vectors,
    read_vector,
    run,
)

WORKLOADS_FILE = (
    pathlib.Path(__file__).resolve().parents[2] / "bench" / "workloads.py"
)


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads_under_test", WORKLOADS_FILE
    )
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses resolve their module through sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class WideClient(Client):
    """The test client, reading lines as long as the server writes."""

    async def __aenter__(self):
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", self.port, limit=MAX_LINE_BYTES
        )
        return self


WORKLOADS = _load_workloads()
SERVE_SPECS = [
    spec for spec in WORKLOADS.WORKLOADS.values()
    if isinstance(spec, WORKLOADS.ServeSpec)
]


def test_both_serve_workloads_are_loaded():
    assert {spec.name for spec in SERVE_SPECS} == {
        "serve-small", "serve-wide"
    }


@pytest.mark.parametrize("spec", SERVE_SPECS, ids=lambda spec: spec.name)
def test_serve_workload_runs_in_process(spec):
    bits = spec.vector_bytes * 8

    async def scenario(server):
        assert type(server.device) is AmbitDevice
        async with WideClient(server.port) as client:
            models = await make_vectors(
                client, ("a", "b", "d"), seed=5, bits=bits
            )
            response = await client.rpc(
                "op", tenant=TENANT, op="xor", dst="d", src1="a", src2="b"
            )
            assert response["ok"], response
            got = await read_vector(client, "d", bits=bits)
        assert np.array_equal(got, models["a"] ^ models["b"])

    run(scenario, ServeConfig(**spec.serve_config()))
