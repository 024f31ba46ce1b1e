"""Deterministic, seed-driven fault schedules.

A :class:`FaultPlan` is a frozen list of :class:`FaultEvent`\\ s keyed
by operation index: "before op 17, pin row 3 of bank 1 subarray 0 to a
seeded random value".  Plans are pure data -- generating one touches no
device -- so the same ``(seed, geometry, rate)`` triple always yields
the same schedule, which is what makes chaos soaks and the CI smoke
job reproducible.

TRA bit-flip events are grounded in the paper's process-variation
analysis: the number of bits an event flips is drawn from the
per-bitline failure probability that :func:`repro.circuit.montecarlo.
tra_failure_rate` measures at the plan's variation level (Section 6 /
Table 2), floored at one bit so every scheduled flip is observable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.circuit.montecarlo import tra_failure_rate
from repro.errors import ConfigError

#: Fault kinds a plan can schedule.
DEVICE_KINDS = ("stuck_row", "tra_flip", "dcc")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault, applied just before ``op_index`` executes."""

    op_index: int
    kind: str
    bank: int
    subarray: int
    #: Local D-group address (``stuck_row`` events).
    row: Optional[int] = None
    #: Seed for the pinned row image (``stuck_row`` events).
    value_seed: int = 0
    #: Bit positions the TRA flip corrupts (``tra_flip`` events).
    flip_bits: Tuple[int, ...] = ()
    #: Which dual-contact row breaks (``dcc`` events).
    dcc: int = 0


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible schedule of fault events for one soak run."""

    seed: int
    ops: int
    fault_rate: float
    variation_level: float
    events: Tuple[FaultEvent, ...] = field(default_factory=tuple)

    def __len__(self) -> int:
        return len(self.events)

    def kinds(self) -> Dict[str, int]:
        """Event count per kind (for reports)."""
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    @classmethod
    def generate(
        cls,
        ops: int,
        seed: int,
        fault_rate: float,
        rows: Mapping[Tuple[int, int], Sequence[int]],
        row_bits: int,
        kinds: Sequence[str] = DEVICE_KINDS,
        variation_level: float = 0.15,
        mc_trials: int = 2048,
    ) -> "FaultPlan":
        """Draw a schedule of ``~ops * fault_rate * len(rows)`` events.

        Parameters
        ----------
        rows:
            ``(bank, subarray) -> candidate local addresses`` -- the
            working set faults should land in, so every injected fault
            is *observable* by the workload (a fault in a row nothing
            ever touches validates nothing).
        row_bits:
            Row width in bits (bounds TRA flip positions).
        kinds:
            Fault kinds to draw from (a subset of :data:`DEVICE_KINDS`).

        The event count is drawn from a Poisson of the expected rate
        but floored at **one**: a soak whose plan happens to contain
        zero faults exercises nothing, so the floor keeps small
        ``--fault-rate`` acceptance runs meaningful while staying fully
        seed-deterministic.  Event indices are capped at 80% of ``ops``
        so late faults still have operations left to surface in.
        """
        if ops <= 0:
            raise ConfigError(f"a fault plan needs ops > 0; got {ops}")
        if not rows:
            raise ConfigError("a fault plan needs at least one target subarray")
        if not kinds:
            raise ConfigError("a fault plan needs at least one fault kind")
        unknown = set(kinds) - set(DEVICE_KINDS)
        if unknown:
            raise ConfigError(f"unknown fault kinds: {sorted(unknown)}")
        rng = np.random.default_rng(seed)
        targets = sorted(rows)
        expected = ops * fault_rate * len(targets)
        count = max(1, int(rng.poisson(expected)))

        # Per-bit flip probability at this variation level; the marginal
        # deck gives the conservative (k in {1,2} patterns) rate the
        # paper's Section 6.1 analysis uses.  Floor the draw at one bit.
        flip_p = tra_failure_rate(
            variation_level, trials=mc_trials, rng=rng, patterns="marginal"
        ).failure_rate

        events = []
        dcc_taken = set()
        horizon = max(1, int(ops * 0.8))
        for _ in range(count):
            op_index = int(rng.integers(0, horizon))
            kind = str(rng.choice(list(kinds)))
            bank, subarray = targets[int(rng.integers(0, len(targets)))]
            if kind == "dcc" and (bank, subarray) in dcc_taken:
                # One broken DCC per subarray: with both n-wordlines
                # gone there is no healthy route left to recover with.
                kind = "stuck_row"
            if kind == "stuck_row":
                candidates = rows[(bank, subarray)]
                events.append(
                    FaultEvent(
                        op_index=op_index,
                        kind=kind,
                        bank=bank,
                        subarray=subarray,
                        row=int(candidates[int(rng.integers(0, len(candidates)))]),
                        value_seed=int(rng.integers(0, 2**63)),
                    )
                )
            elif kind == "tra_flip":
                n_bits = max(1, int(rng.binomial(row_bits, min(1.0, flip_p))))
                bits = np.unique(rng.integers(0, row_bits, size=n_bits))
                events.append(
                    FaultEvent(
                        op_index=op_index,
                        kind=kind,
                        bank=bank,
                        subarray=subarray,
                        flip_bits=tuple(int(b) for b in bits),
                    )
                )
            else:  # dcc
                dcc_taken.add((bank, subarray))
                events.append(
                    FaultEvent(
                        op_index=op_index,
                        kind=kind,
                        bank=bank,
                        subarray=subarray,
                        dcc=int(rng.integers(0, 2)),
                    )
                )
        events.sort(key=lambda e: e.op_index)
        return cls(
            seed=seed,
            ops=ops,
            fault_rate=fault_rate,
            variation_level=variation_level,
            events=tuple(events),
        )
