"""Shared fixtures: small geometries keep the functional model fast
while exercising identical code paths to the full-size device."""

import numpy as np
import pytest

from repro.core.device import AmbitDevice
from repro.dram.geometry import DramGeometry, SubarrayGeometry, small_test_geometry


@pytest.fixture
def tiny_geo() -> DramGeometry:
    """2 banks x 2 subarrays x 32 rows x 64-byte rows."""
    return small_test_geometry(rows=32, row_bytes=64, banks=2, subarrays_per_bank=2)


@pytest.fixture
def device(tiny_geo) -> AmbitDevice:
    return AmbitDevice(geometry=tiny_geo)


@pytest.fixture
def command_log(device):
    """Structured command capture on ``device``.

    Lets any test assert exact command sequences and counter deltas::

        device.bbop_row(BulkOp.AND, dk, di, dj)
        assert command_log.lines()[0] == "ACT 0 0 0"
        assert command_log.counters().tras == 1

    ``lines()``/``text()`` render the :mod:`repro.dram.trace_io` format
    (WR lines include payloads); ``counters()`` returns the
    :class:`repro.obs.CounterSet` delta; ``clear()`` resets both.
    """
    from repro.obs import CommandLog

    log = CommandLog(device)
    yield log
    log.detach()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def words(tiny_geo) -> int:
    return tiny_geo.subarray.words_per_row


def random_row(rng: np.random.Generator, words: int) -> np.ndarray:
    """A random packed row image."""
    return rng.integers(0, 2**63, size=words, dtype=np.uint64) | (
        rng.integers(0, 2, size=words, dtype=np.uint64) << np.uint64(63)
    )


@pytest.fixture
def make_row(rng, words):
    """Factory fixture producing random packed rows of the tiny geometry."""

    def _make() -> np.ndarray:
        return random_row(rng, words)

    return _make


@pytest.fixture
def medium_geo() -> DramGeometry:
    """Larger rows for tests that need several uint64 words per row."""
    return DramGeometry(
        banks=2,
        subarrays_per_bank=2,
        subarray=SubarrayGeometry(rows=64, row_bytes=512),
    )
