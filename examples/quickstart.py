#!/usr/bin/env python
"""Quickstart: bulk bitwise operations inside DRAM.

Allocates two bitvectors through the subarray-aware driver, combines
them with in-DRAM AND/OR/XOR/NOT (every operation really executes as
ACTIVATE/PRECHARGE command sequences against the functional Ambit
device, including triple-row activations and dual-contact-cell NOTs),
verifies the results against numpy, and prints the device-side timing
and energy accounting.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import AmbitBitSystem, DramGeometry, SubarrayGeometry
from repro.energy import trace_energy_nj


def main() -> None:
    # A small device keeps the functional simulation snappy; the
    # mechanism is identical at any geometry.
    system = AmbitBitSystem(
        geometry=DramGeometry(
            banks=4,
            subarrays_per_bank=4,
            subarray=SubarrayGeometry(rows=64, row_bytes=1024),
        )
    )
    rng = np.random.default_rng(42)
    nbits = 100_000

    bits_a = rng.random(nbits) < 0.5
    bits_b = rng.random(nbits) < 0.5
    # Capture the bus commands for the per-command energy fold below;
    # the counts themselves need no capture.
    with system.device.chip.trace.capture() as issued:
        a = system.from_bits(bits_a)
        b = system.from_bits(bits_b, like=a)  # co-located => pure RowClone-FPM

        print(f"allocated two {nbits}-bit vectors across "
              f"{a.handle.num_rows} DRAM rows each")

        conj = a & b          # 4 AAPs per row: copy, copy, init T2=0, TRA
        disj = a | b          # same with the all-ones control row
        parity = a ^ b        # 5 AAPs + 2 APs per row (Figure 8c)
        complement = ~a       # 2 AAPs per row through the dual-contact cells

        assert np.array_equal(conj.to_bits(), bits_a & bits_b)
        assert np.array_equal(disj.to_bits(), bits_a | bits_b)
        assert np.array_equal(parity.to_bits(), bits_a ^ bits_b)
        assert np.array_equal(complement.to_bits(), ~bits_a)
        print("all four results verified bit-exact against numpy")

        print(f"\npopcount(a & b) = {conj.popcount()}")

    device = system.device
    stats = device.controller.stats
    acts, pres, _, _ = device.chip.trace.counts()
    energy = trace_energy_nj(issued, device.row_bytes)
    print(f"\ndevice-side accounting:")
    print(f"  AAP primitives executed : {stats.aap_count}")
    print(f"  AP primitives executed  : {stats.ap_count}")
    print(f"  ACTIVATEs / PRECHARGEs  : {acts} / {pres}")
    print(f"  bank-parallel makespan  : {device.elapsed_ns:,.0f} ns")
    print(f"  DRAM energy             : {energy:,.1f} nJ")
    print(f"  (the same work over a DDR3 channel would move "
          f"{4 * 3 * a.handle.num_rows * device.row_bytes / 1024:,.0f} KB)")


if __name__ == "__main__":
    main()
