"""Runtime fault injection, detection, and recovery (Section 5.5).

The paper argues Ambit is deployable on commodity DRAM because the
usual reliability machinery still applies: post-manufacturing testing
finds rows whose cells cannot survive triple-row activation
(Section 5.5.2, modelled in :mod:`repro.core.testing`), spare rows
within the same subarray repair them (Section 5.5.3, modelled in
:mod:`repro.core.repair`), and process variation bounds the residual
TRA failure rate (Section 6, modelled in :mod:`repro.circuit`).

This package closes the loop at *runtime*:

* :class:`FaultPlan` / :class:`FaultInjector` -- a deterministic,
  seed-driven schedule of faults (stuck rows, variation-induced TRA bit
  flips sampled from :mod:`repro.circuit.montecarlo`, DCC n-wordline
  failures) injected into live devices;
* :mod:`repro.faults.detect` -- paper-style verify-row checks and
  command-path probes that localise a fault after a result mismatch;
* :class:`FaultTolerantSession` -- per-op result verification against a
  host-side shadow (the numpy reference), with a recovery ladder of
  retry, spare-row remap (:class:`~repro.core.repair.RowRepairMap`),
  and DCC rerouting;
* :func:`run_chaos` / ``repro chaos`` -- a soak harness that runs N
  bulk operations under a fault plan and fails loudly on any
  unrecovered fault or bit mismatch.

Every fault event is counted in the ``ambit_faults_{injected,detected,
recovered,unrecovered}`` metric families (see docs/RELIABILITY.md).
"""

from repro.faults.chaos import ChaosConfig, ChaosReport, format_chaos, run_chaos
from repro.faults.detect import probe_dcc, probe_row, probe_rows, verify_designated_rows
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultPlan
from repro.faults.recover import FaultTolerantSession, RecoveryPolicy

__all__ = [
    "ChaosConfig",
    "ChaosReport",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultTolerantSession",
    "RecoveryPolicy",
    "format_chaos",
    "probe_dcc",
    "probe_row",
    "probe_rows",
    "run_chaos",
    "verify_designated_rows",
]
