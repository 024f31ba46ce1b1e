"""The benchmark's layer table must name functions that exist.

``bench/layers.py`` measures per-layer self time by wrapping functions
it finds by name: for each ``(module, "Class.attr")`` target in
``LAYERS``, ``install()`` imports the module, walks to the owner and
takes ``owner.__dict__[attr]``.  A method deleted, renamed, or merely
inherited instead of defined in its class would only surface as a
``KeyError`` in a traced benchmark run; this test resolves every target
the same way, without installing any wrapper, so it fails here first.
"""

import importlib
import importlib.util
import pathlib

import pytest

LAYERS_FILE = pathlib.Path(__file__).resolve().parents[2] / "bench" / "layers.py"


def _layer_targets():
    spec = importlib.util.spec_from_file_location(
        "bench_layers_under_test", LAYERS_FILE
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [
        (layer, module_name, path)
        for layer, targets in module.LAYERS.items()
        for module_name, path in targets
    ]


TARGETS = _layer_targets()


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
