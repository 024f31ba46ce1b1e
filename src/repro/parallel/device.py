"""A name kept for the benchmark harness; nothing constructs it.

Every bulk batch runs in process, on
:class:`~repro.core.device.AmbitDevice`.  ``bench/layers.py`` still
wraps ``ShardedDevice.run_rows`` and ``ShardedDevice.run_compiled`` by
name, so the class keeps those two members.
"""

from __future__ import annotations


class ShardedDevice:
    """Kept only because ``bench/layers.py`` reads it; remove with the
    benchmark change that drops it."""

    def run_rows(self, *args, **kwargs):
        """Not runnable: bulk batches run on ``AmbitDevice``."""
        raise NotImplementedError("bulk batches run on AmbitDevice")

    def run_compiled(self, *args, **kwargs):
        """Not runnable: bulk batches run on ``AmbitDevice``."""
        raise NotImplementedError("bulk batches run on AmbitDevice")
