"""The benchmark's layer table must name functions that exist, and the
device counters it reads must count.

``bench/layers.py`` measures per-layer self time by wrapping functions
it finds by name: for each ``(module, "Class.attr")`` target in
``LAYERS``, ``install()`` imports the module, walks to the owner and
takes ``owner.__dict__[attr]``.  A method deleted, renamed, or merely
inherited instead of defined in its class would only surface as a
``KeyError`` in a traced benchmark run; this test resolves every target
the same way, without installing any wrapper, so it fails here first.
Its ``device_counters()`` reads public counters by name, which a change
to the plan cache or the command trace could leave reading zero.
"""

import importlib
import importlib.util
import pathlib

import numpy as np
import pytest

from repro.core.device import AmbitDevice
from repro.core.microprograms import BulkOp
from repro.dram.chip import RowLocation
from repro.dram.geometry import small_test_geometry
from repro.parallel import ShardedDevice

LAYERS_FILE = pathlib.Path(__file__).resolve().parents[2] / "bench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location(
        "bench_layers_under_test", LAYERS_FILE
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = _load_layers()
TARGETS = [
    (layer, module_name, path)
    for layer, targets in LAYERS.LAYERS.items()
    for module_name, path in targets
]


def test_layer_table_is_not_empty():
    assert TARGETS, f"no LAYERS targets loaded from {LAYERS_FILE}"


@pytest.mark.parametrize(
    "layer, module_name, path",
    TARGETS,
    ids=[f"{module}:{path}" for _, module, path in TARGETS],
)
def test_layer_target_resolves_like_install(layer, module_name, path):
    owner = importlib.import_module(module_name)
    *owner_path, attr = path.split(".")
    for part in owner_path:
        owner = getattr(owner, part)
    assert attr in owner.__dict__, (
        f"layer {layer!r}: {module_name}.{path} is not defined on "
        f"{owner!r} itself; bench/layers.py install() would fail"
    )
    assert callable(owner.__dict__[attr])


@pytest.mark.parametrize("sharded", (False, True), ids=("plain", "sharded"))
def test_device_counters_count_one_batch(sharded):
    """After one batch, every row is one plan-cache lookup and the
    command count is the trace's, on the plain and the sharded device."""
    geometry = small_test_geometry(
        rows=32, row_bytes=64, banks=2, subarrays_per_bank=1
    )
    if sharded:
        device = ShardedDevice(geometry=geometry, max_workers=2)
    else:
        device = AmbitDevice(geometry=geometry)
    with device:
        rng = np.random.default_rng(3)
        for bank in range(geometry.banks):
            for addr in range(8):
                device.write_row(
                    RowLocation(bank, 0, addr),
                    rng.integers(
                        0, 2**63, size=geometry.subarray.words_per_row,
                        dtype=np.uint64,
                    ),
                )
        dst, src1, src2 = (
            [RowLocation(bank, 0, 3 * j + k)
             for bank in range(geometry.banks) for j in range(2)]
            for k in range(3)
        )
        report = device.run_rows(BulkOp.AND, dst, src1, src2)
        counters = LAYERS.device_counters(device)
        assert report.shards == (2 if sharded else 1)
        assert counters["plan_hits"] + counters["plan_misses"] == len(dst)
        assert counters["commands"] == len(device.chip.trace) > 0
