"""Per-layer self time, measured from outside the program.

:func:`install` replaces each layer's public functions (class attributes
or module globals) with timing wrappers.  Nothing under ``src/`` knows
about them.  A wrapper adds its wall time to its layer and subtracts the
time of wrapped calls nested inside it, using a per-thread stack, so
each layer gets its *self* time.  Accumulators are per thread as well:
the server's event-loop and device threads never share a counter.  Only
a thread's outermost wrapped call takes a lock, to keep the wall time
during which any layer runs at all.

A few wrappers also read counts from arguments or return values
(requests per wave, fused rows per batch); :func:`snapshot` returns
everything together with the device's own public counters, and
:func:`layer_metrics` turns two snapshots into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Layer name -> ``(module, attribute path)`` of every wrapped function.
#: Module globals are patched in the module that *calls* them (the server
#: binds the protocol helpers by name; the engine calls
#: ``apply_bulk_op`` through its own module namespace).  The shadow
#: compute in ``repro.faults.recover`` keeps the unpatched
#: ``apply_bulk_op``, so it counts toward ``faults.recover``.
LAYERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "serve.protocol": tuple(
        ("repro.serve.server", name)
        for name in ("decode_frame", "encode_frame", "payload_bytes",
                     "bytes_to_rows", "rows_to_hex")
    ),
    "serve.coalescer": (
        ("repro.serve.coalescer", "Coalescer.submit"),
        ("repro.serve.coalescer", "plan_waves"),
    ),
    "faults.recover": tuple(
        ("repro.faults.recover", f"FaultTolerantSession.{name}")
        for name in ("run_rows", "run_compiled", "write_row", "read_row")
    ),
    "parallel.device": (
        ("repro.parallel.device", "ShardedDevice.run_rows"),
        ("repro.parallel.device", "ShardedDevice.run_compiled"),
    ),
    "engine.batch": (
        ("repro.engine.batch", "BatchEngine.run_rows"),
        ("repro.engine.batch", "BatchEngine.run_compiled"),
    ),
    "engine.batch.plan_groups": (
        ("repro.engine.batch", "BatchEngine.plan_groups"),
        ("repro.engine.batch", "BatchEngine.plan_groups_compiled"),
    ),
    "engine.batch.account_group": (
        ("repro.engine.batch", "BatchEngine.account_group"),
    ),
    "dram.subarray": (
        ("repro.dram.subarray", "Subarray.peek_batch"),
        ("repro.dram.subarray", "Subarray.poke_batch"),
        ("repro.dram.subarray", "Subarray.touch_rows"),
        ("repro.engine.batch", "apply_bulk_op"),
        ("repro.compile.ops", "CompiledOp.eval_rows"),
    ),
    "core.controller": tuple(
        ("repro.core.controller", f"AmbitController.{name}")
        for name in ("run_plan", "bbop", "bbop_compiled")
    ),
    "core.device": (
        ("repro.core.device", "AmbitDevice.read_row"),
        ("repro.core.device", "AmbitDevice.write_row"),
    ),
    # ``temp_rows`` is a context manager whose leases go through
    # ``allocate`` and ``free``; wrapping the call itself would time only
    # the creation of the manager.
    "core.driver": tuple(
        ("repro.core.driver", f"AmbitDriver.{name}")
        for name in ("allocate", "free", "stage_for")
    ),
    "apps.bitvector": tuple(
        ("repro.apps.bitvector", f"BitVector.{name}")
        for name in ("compute", "op_into", "set_bits", "to_bits")
    ),
    # ``record_command`` is the chip's per-command hook; without it the
    # tracer's largest cost would land in ``core.controller``.
    "obs.tracer": tuple(
        ("repro.obs.tracer", f"Tracer.{name}")
        for name in ("begin_op", "end_op", "record_primitive",
                     "record_command")
    ) + tuple(
        ("repro.obs.sinks", f"{name}.emit")
        for name in ("RingBufferSink", "CounterSink", "JsonLinesSink",
                     "ChromeTraceSink")
    ) + (("repro.obs.profiler", "_OpAggregator.emit"),),
}

#: Counts read from arguments and return values (see ``_probe_*``); they
#: share the layers' ``[self_ns, calls, outermost_ns]`` entries and use
#: the first slot.
PROBES = ("waves", "wave_requests", "queue_wait_ns", "batch_rows",
          "batch_fused")


class Recorder:
    """Per-thread self-time accumulators for every layer, plus the wall
    time during which any thread is inside a wrapped function."""

    def __init__(self):
        self._local = threading.local()
        self._threads: List[Dict[str, List[int]]] = []
        self._lock = threading.Lock()
        # Threads now inside an outermost wrapper, since when, and the
        # wall time covered so far.  Two threads' layers can overlap (the
        # device thread runs numpy without the GIL while the event loop
        # decodes frames), so this is the union, not the sum, of their
        # times; it is what ``unattributed.share`` is measured from.
        self._inside = 0
        self._since = 0
        self._covered_ns = 0
        #: Cleared around work that is not part of the measurement (the
        #: harness's own result checks); wrappers then just call through.
        self.active = True

    # Both take the wrapper's own clock readings, so on one thread the
    # covered time equals the sum of the layers' self times.
    def _enter(self, now: int) -> None:
        with self._lock:
            if not self._inside:
                self._since = now
            self._inside += 1

    def _leave(self, now: int) -> None:
        with self._lock:
            self._inside -= 1
            if not self._inside:
                self._covered_ns += now - self._since

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.totals = {
                name: [0, 0, 0] for name in list(LAYERS) + list(PROBES)
            }
            with self._lock:
                self._threads.append(local.totals)
        return local.stack, local.totals

    def wrap(self, layer: str, fn: Callable, probe=None) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            stack, totals = recorder._state()
            first = not stack
            # frame = [layer, nested wrapped time]
            frame = [layer, 0]
            outermost = all(f[0] != layer for f in stack)
            stack.append(frame)
            started = time.perf_counter_ns()
            if first:
                recorder._enter(started)
            try:
                result = fn(*args, **kwargs)
            finally:
                ended = time.perf_counter_ns()
                elapsed = ended - started
                stack.pop()
                entry = totals[layer]
                entry[0] += elapsed - frame[1]
                entry[1] += 1
                if outermost:
                    entry[2] += elapsed
                if stack:
                    stack[-1][1] += elapsed
                else:
                    recorder._leave(ended)
            if probe is not None:
                probe(totals, stack, args, result)
            return result

        return timed

    def totals(self) -> Dict[str, List[int]]:
        """Sum of every thread's ``[self_ns, calls, outermost_ns]``, and
        under ``"covered"`` the wall time any thread spent inside a
        wrapped function."""
        merged = {name: [0, 0, 0] for name in list(LAYERS) + list(PROBES)}
        with self._lock:
            threads = list(self._threads)
            merged["covered"] = [self._covered_ns, 0, 0]
        for totals in threads:
            for name, values in totals.items():
                for i, value in enumerate(list(values)):
                    merged[name][i] += value
        return merged


def _probe_waves(totals, stack, args, waves) -> None:
    requests = args[0]
    totals["waves"][0] += len(waves)
    totals["wave_requests"][0] += len(requests)
    totals["queue_wait_ns"][0] += sum(
        r.timing["drained"] - r.timing["submitted"] for r in requests
    )


def _probe_report(totals, stack, args, report) -> None:
    # Count each batch once, at its outermost call: a sharded device
    # that falls back in process returns the engine's own report.
    if any(f[0] in ("parallel.device", "engine.batch") for f in stack):
        return
    totals["batch_rows"][0] += report.rows
    totals["batch_fused"][0] += report.fused_rows


_PROBED = {
    ("repro.serve.coalescer", "plan_waves"): _probe_waves,
    ("repro.engine.batch", "BatchEngine.run_rows"): _probe_report,
    ("repro.engine.batch", "BatchEngine.run_compiled"): _probe_report,
    ("repro.parallel.device", "ShardedDevice.run_rows"): _probe_report,
    ("repro.parallel.device", "ShardedDevice.run_compiled"): _probe_report,
}


def install() -> Recorder:
    """Wrap every function in :data:`LAYERS`; returns the recorder that
    accumulates their times.  Install in the process that owns the
    device, once."""
    recorder = Recorder()
    for layer, targets in LAYERS.items():
        for module_name, path in targets:
            owner = importlib.import_module(module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            probe = _PROBED.get((module_name, path))
            setattr(owner, attr,
                    recorder.wrap(layer, owner.__dict__[attr], probe))
    return recorder


def device_counters(device) -> Dict[str, float]:
    """The device's own public counters, read between measured phases."""
    cache = device.controller.plan_cache
    dispatch: Dict[str, float] = {}
    family = device.metrics.get("ambit_dispatch_total")
    if family is not None:
        for labels, child in family.children.items():
            dispatch[labels[0]] = float(child.value)
    return {
        "elapsed_ns": float(device.elapsed_ns),
        "commands": len(device.chip.trace),
        "plan_hits": cache.hits,
        "plan_misses": cache.misses,
        "plan_evictions": cache.evictions,
        "dispatch_sharded": dispatch.get("sharded", 0.0),
        "dispatch_total": sum(dispatch.values()),
    }


def snapshot(device, recorder: Optional[Recorder]) -> Dict[str, object]:
    """Clock, device counters and (when tracing) layer totals; taken
    between measured phases, never inside one."""
    return {
        "t": time.perf_counter(),
        "device": device_counters(device),
        "layers": recorder.totals() if recorder is not None else None,
    }


def layer_metrics(
    before: Dict[str, object],
    after: Dict[str, object],
    requests: int,
    wall_s: float,
) -> Dict[str, float]:
    """Per-layer metrics of the interval between two traced snapshots.

    ``requests`` completed in the interval and ``wall_s`` is its measured
    wall time.  Metrics of layers the workload bypasses read 0.
    """
    lb, la = before["layers"], after["layers"]
    db, da = before["device"], after["device"]

    def delta(name: str, index: int = 0) -> float:
        return float(la[name][index] - lb[name][index])

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    wall_ns = wall_s * 1e9
    out: Dict[str, float] = {}
    for layer in LAYERS:
        self_ns = delta(layer)
        out[f"{layer}.self_us"] = ratio(self_ns, requests) / 1e3
        out[f"{layer}.share"] = ratio(self_ns, wall_ns)
        out[f"{layer}.calls"] = ratio(delta(layer, 1), requests)
    # Measured on its own clock, not as 1 - sum(shares): with one thread
    # the two add up to 1, with layers overlapping on two threads the
    # shares add up to more.
    out["unattributed.share"] = 1.0 - ratio(delta("covered"), wall_ns)
    out["serve.coalescer.queue_wait_us"] = ratio(
        delta("queue_wait_ns"), delta("wave_requests")
    ) / 1e3
    out["serve.coalescer.requests_per_wave"] = ratio(
        delta("wave_requests"), delta("waves")
    )
    hits = da["plan_hits"] - db["plan_hits"]
    misses = da["plan_misses"] - db["plan_misses"]
    out["engine.plan.hit_ratio"] = ratio(hits, hits + misses)
    out["engine.plan.evictions_per_req"] = ratio(
        da["plan_evictions"] - db["plan_evictions"], requests
    )
    out["engine.batch.fused_frac"] = ratio(
        delta("batch_fused"), delta("batch_rows")
    )
    out["parallel.device.sharded_frac"] = ratio(
        da["dispatch_sharded"] - db["dispatch_sharded"],
        da["dispatch_total"] - db["dispatch_total"],
    )
    out["device_thread.busy"] = ratio(delta("faults.recover", 2), wall_ns)
    out["dram.commands_per_req"] = ratio(
        da["commands"] - db["commands"], requests
    )
    return out
