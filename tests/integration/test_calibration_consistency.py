"""Cross-model calibration consistency.

The repository contains several independent performance models; these
tests check that they tell one coherent story:

* the CPU cost model's effective DRAM streaming rate is consistent with
  the command-level FR-FCFS controller under a low-MLP access stream
  (the Table 4 CPU has a 64-entry instruction queue and one channel);
* the analytical Ambit throughput model agrees with both the functional
  device and the AAP latency identities;
* the energy model's AAP cost is consistent between the trace fold and
  the closed-form constants.
"""

import numpy as np
import pytest

from repro.core.device import AmbitDevice
from repro.core.microprograms import BulkOp
from repro.dram.chip import RowLocation
from repro.dram.controller import FrFcfsScheduler, MemRequest, RequestType
from repro.dram.geometry import small_test_geometry
from repro.dram.timing import ddr4_2400
from repro.energy import DEFAULT_ENERGY, trace_energy_nj
from repro.perf import ambit
from repro.sim.cpu import CpuModel


class TestCpuDramRate:
    def test_streaming_rate_matches_frfcfs_low_mlp(self):
        """A dependent (one-outstanding-request) random-row stream on the
        command-level DDR4 model achieves ~the calibrated 2 GB/s."""
        timing = ddr4_2400()
        sched = FrFcfsScheduler(timing=timing, banks=16)
        rng = np.random.default_rng(0)
        n = 400
        # Low MLP: each request arrives when the previous finished.
        # Emulate by spacing arrivals at the single-request service time.
        service = timing.tRCD + timing.tCL + timing.tBL
        for i in range(n):
            sched.enqueue(
                MemRequest(
                    RequestType.READ,
                    bank=int(rng.integers(0, 16)),
                    row=int(rng.integers(0, 4096)),
                    arrival_ns=i * service,
                )
            )
        makespan, done = sched.run()
        achieved_gbps = n * 64 / makespan
        calibrated = CpuModel().config.dram_stream_gbps
        assert achieved_gbps == pytest.approx(calibrated, rel=0.25)

    def test_row_hits_would_be_faster(self):
        """The same stream with full row locality beats the calibrated
        rate -- i.e. the 2 GB/s models miss-dominated access, which is
        the right regime for multi-MB bitwise streaming."""
        timing = ddr4_2400()
        sched = FrFcfsScheduler(timing=timing, banks=16)
        service = timing.tCL + timing.tBL
        n = 400
        for i in range(n):
            sched.enqueue(
                MemRequest(RequestType.READ, bank=0, row=7,
                           arrival_ns=i * service)
            )
        makespan, _ = sched.run()
        achieved = n * 64 / makespan
        assert achieved > CpuModel().config.dram_stream_gbps


class TestAmbitModelConsistency:
    def test_throughput_equals_row_over_latency(self):
        model = ambit(banks=8)
        for op in (BulkOp.AND, BulkOp.NOT, BulkOp.XOR):
            expected = 8192 / model.op_latency_ns(op) * 8
            assert model.throughput_gops(op) == pytest.approx(expected)

    def test_device_latency_equals_model_latency(self):
        geo = small_test_geometry(rows=24, row_bytes=8192, banks=1,
                                  subarrays_per_bank=1)
        device = AmbitDevice(geometry=geo)
        model = ambit(banks=1)
        rng = np.random.default_rng(1)
        a = rng.integers(0, 2**63, size=1024, dtype=np.uint64)
        device.write_row(RowLocation(0, 0, 0), a)
        device.write_row(RowLocation(0, 0, 1), a)
        for op in (BulkOp.AND, BulkOp.NAND, BulkOp.XOR):
            device.reset_stats()
            device.bbop_row(
                op, RowLocation(0, 0, 2), RowLocation(0, 0, 0),
                None if op.arity == 1 else RowLocation(0, 0, 1),
            )
            assert device.elapsed_ns == pytest.approx(model.op_latency_ns(op))


class TestEnergyConsistency:
    def test_aap_energy_constant(self):
        """One AAP (2 single-wordline ACTs + PRE) costs exactly
        2*act + pre = 6.4 nJ at the reference row size -- the constant
        Table 3's Ambit column is built from."""
        geo = small_test_geometry(rows=24, row_bytes=8192, banks=1,
                                  subarrays_per_bank=1)
        device = AmbitDevice(geometry=geo)
        rng = np.random.default_rng(2)
        a = rng.integers(0, 2**63, size=1024, dtype=np.uint64)
        device.write_row(RowLocation(0, 0, 0), a)
        device.reset_stats()
        with device.chip.trace.capture() as issued:
            device.bbop_row(
                BulkOp.COPY, RowLocation(0, 0, 2), RowLocation(0, 0, 0)
            )
        energy = trace_energy_nj(issued, device.row_bytes)
        params = DEFAULT_ENERGY
        assert energy == pytest.approx(2 * params.act_nj + params.pre_nj)

    def test_tra_surcharge_visible_in_trace(self):
        geo = small_test_geometry(rows=24, row_bytes=8192, banks=1,
                                  subarrays_per_bank=1)
        device = AmbitDevice(geometry=geo)
        rng = np.random.default_rng(3)
        a = rng.integers(0, 2**63, size=1024, dtype=np.uint64)
        device.write_row(RowLocation(0, 0, 0), a)
        device.write_row(RowLocation(0, 0, 1), a)
        device.reset_stats()
        with device.chip.trace.capture() as issued:
            device.bbop_row(BulkOp.AND, RowLocation(0, 0, 2),
                            RowLocation(0, 0, 0), RowLocation(0, 0, 1))
        energy = trace_energy_nj(issued, device.row_bytes)
        params = DEFAULT_ENERGY
        # 4 AAPs; the last one's first ACT raises 3 wordlines (+44%).
        plain = 4 * (2 * params.act_nj + params.pre_nj)
        expected = plain + params.act_nj * 0.44
        assert energy == pytest.approx(expected)
