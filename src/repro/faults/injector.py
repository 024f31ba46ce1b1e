"""Applies a :class:`~repro.faults.plan.FaultPlan` to a live device.

The injector is the only component that mutates device fault state; the
detection and recovery layers treat the device as an opaque (possibly
faulty) machine.  Each applied event increments the
``ambit_faults_injected_total{kind=...}`` counter.

Injection mechanics per kind:

* ``stuck_row`` -- :meth:`Subarray.inject_stuck_row` with a seeded
  random image (hard fault; writes and restores cannot change it).
* ``tra_flip`` -- arms the subarray's one-shot ``tra_fault_hook``: the
  *next* fresh triple-row activation XORs the event's flip mask into
  the sensed value, then the hook disarms (transient variation fault,
  Section 6).
* ``dcc`` -- :meth:`Subarray.inject_dcc_fault` on the chosen
  dual-contact row's storage row (its n-wordline stops negating).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional

import numpy as np

from repro.core.addressing import AmbitAddressMap
from repro.faults.plan import FaultEvent, FaultPlan
from repro.obs.metrics import fault_counters


def flip_mask(flip_bits, words: int) -> np.ndarray:
    """Packed uint64 mask with the given bit positions set."""
    mask = np.zeros(words, dtype=np.uint64)
    for bit in flip_bits:
        mask[bit // 64] |= np.uint64(1) << np.uint64(bit % 64)
    return mask


class FaultInjector:
    """Walks a plan alongside a workload, injecting before each op.

    Usage::

        injector = FaultInjector(device, plan)
        for i in range(plan.ops):
            injector.before_op(i)
            ...execute op i...
    """

    def __init__(self, device, plan: FaultPlan, metrics: Optional[object] = None):
        self.device = device
        self.plan = plan
        self.amap: AmbitAddressMap = device.amap
        self._by_op: Dict[int, List[FaultEvent]] = defaultdict(list)
        for event in plan.events:
            self._by_op[event.op_index].append(event)
        self._counters = fault_counters(
            metrics if metrics is not None else device.metrics
        )
        #: Events applied, in application order.
        self.applied: List[FaultEvent] = []

    # ------------------------------------------------------------------
    def before_op(self, op_index: int) -> List[FaultEvent]:
        """Apply every event scheduled for ``op_index``; returns them."""
        events = self._by_op.pop(op_index, [])
        for event in events:
            self._apply(event)
            self._counters["injected"].labels(kind=event.kind).inc()
            self.applied.append(event)
        return events

    def drain(self) -> List[FaultEvent]:
        """Events whose op index was never reached (for reports)."""
        remaining = [e for events in self._by_op.values() for e in events]
        self._by_op.clear()
        return remaining

    # ------------------------------------------------------------------
    def _subarray(self, event: FaultEvent):
        return self.device.chip.bank(event.bank).subarray(event.subarray)

    def _apply(self, event: FaultEvent) -> None:
        if event.kind == "stuck_row":
            sub = self._subarray(event)
            words = sub.geometry.words_per_row
            value = np.random.default_rng(event.value_seed).integers(
                0, 2**64, size=words, dtype=np.uint64
            )
            # Inject at the *current physical* row of the address, so a
            # previously repaired address can lose its spare too.
            repair = self.device.controller.repair
            physical = repair.translate(event.bank, event.subarray, event.row)
            sub.inject_stuck_row(physical, value)
            return
        if event.kind == "tra_flip":
            sub = self._subarray(event)
            mask = flip_mask(event.flip_bits, sub.geometry.words_per_row)

            def hook(sensed, _sub=sub, _mask=mask):
                _sub.tra_fault_hook = None  # one-shot
                return _mask

            sub.tra_fault_hook = hook
            return
        if event.kind == "dcc":
            self._subarray(event).inject_dcc_fault(self.amap.row_dcc(event.dcc))
            return
        raise ValueError(f"unknown fault kind {event.kind!r}")
