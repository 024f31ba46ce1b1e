"""The process that owns the device: a server, or the library workload.

``run.py`` starts this file as a child process; it is not meant to be
run by hand.  The two talk over the child's stdin and stdout, one JSON
object per stdout line.

``devproc.py serve --workload W``
    Starts ``BulkBitwiseServer`` and prints ``{"ready": <port>}``.  It
    then answers stdin commands: ``snap`` prints a snapshot (taken on
    the device thread, so between waves), ``trace`` installs the layer
    wrappers and prints a snapshot, ``rss`` prints the resident memory,
    ``probe`` prints the reference kernel's time on the device thread
    (``reference.py``), and ``quit`` (or end of input) closes the server
    and exits.
``devproc.py lib --workload W --seed N --seconds S --trace 0|1``
    Builds the device, loads the columns, runs one query, and prints
    ``{"ready": true}``.  On ``go`` it runs the warm-up queries and the
    measured phases and prints their records; on ``quit`` (or end of
    input) it exits.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import ctypes
import gc
import json
import os
import sys
import time
from typing import Dict, List

import numpy as np

import layers
import reference
from workloads import WORKLOADS, LibSpec, ServeSpec, lib_expected, lib_inputs


def emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def resident_kib() -> int:
    """Resident memory of this process after a full garbage collection
    and after returning free heap pages to the system, so the figure
    depends on live data, not on when garbage was last collected."""
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass  # not glibc: the figure includes freed heap pages
    with open("/proc/self/statm") as statm:
        pages = int(statm.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") // 1024


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
async def serve(spec: ServeSpec) -> None:
    from repro.serve.server import BulkBitwiseServer, ServeConfig

    server = BulkBitwiseServer(ServeConfig(**spec.serve_config()))
    await server.start()
    loop = asyncio.get_running_loop()
    # Read stdin on the event loop, not in a thread: a thread blocked in
    # readline holds stdin's lock, and a worker forked by the sharded
    # device would deadlock closing its copy of stdin.
    commands = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(commands), sys.stdin
    )
    recorder = None
    try:
        emit({"ready": server.port})
        while True:
            command = (await commands.readline()).decode().strip()
            if command in ("", "quit"):
                break
            if command == "rss":
                emit({"rss_kib": await loop.run_in_executor(
                    server.executor, resident_kib
                )})
                continue
            if command == "probe":
                emit({"ref": await loop.run_in_executor(
                    server.executor, reference.probe, reference.PROBE_S
                )})
                continue
            if command == "trace" and recorder is None:
                recorder = await loop.run_in_executor(
                    server.executor, layers.install
                )
            emit(await loop.run_in_executor(
                server.executor, layers.snapshot, server.device, recorder
            ))
    finally:
        await server.close()


# ----------------------------------------------------------------------
# lib
# ----------------------------------------------------------------------
def _planes(values: np.ndarray, width: int) -> List[np.ndarray]:
    return [((values >> np.uint64(k)) & np.uint64(1)).astype(bool)
            for k in range(width)]


def _row_images(bits: np.ndarray, row_bits: int) -> np.ndarray:
    """A bit array as packed ``(rows, words)`` uint64 row images, with the
    tail of the last row zero, as ``BitVector`` keeps it."""
    rows = -(-bits.size // row_bits)
    padded = np.zeros(rows * row_bits, dtype=bool)
    padded[: bits.size] = bits
    packed = np.packbits(padded, bitorder="little").view(np.uint64)
    return packed.reshape(rows, -1)


class LibWorkload:
    """The query over three columns on an in-process ``AmbitBitSystem``."""

    def __init__(self, spec: LibSpec, seed: int, corrupt: bool):
        from repro.apps.bitvector import AmbitBitSystem
        from repro.compile.kernels import BitColumn
        from repro.dram.geometry import small_test_geometry

        self.spec = spec
        values = lib_inputs(spec, seed)
        total, mask, chosen = lib_expected(spec, *values)
        # Expected row images of every result plane, in query order, so
        # a check is one row read and compare per plane.
        self.expected = [
            _row_images(bits, spec.row_bytes * 8)
            for bits in _planes(total, spec.width) + [mask]
            + _planes(chosen, spec.width)
        ]
        if corrupt:
            self.expected[0][0, 0] ^= np.uint64(1)
        self.system = AmbitBitSystem(geometry=small_test_geometry(
            rows=spec.rows, row_bytes=spec.row_bytes, banks=spec.banks,
            subarrays_per_bank=1,
        ))
        self.device = self.system.device
        a = BitColumn.from_ints(self.system, values[0], spec.width)
        like = a.planes[0]  # co-locate every plane with a's first plane
        self.columns = (a,) + tuple(
            BitColumn.from_ints(self.system, v, spec.width, like=like)
            for v in values[1:]
        )
        self.recorder = None
        self.mismatches = 0

    def query(self) -> float:
        """One query (one request); returns its duration.  The results
        are checked against numpy and freed off the clock."""
        from repro.compile.kernels import add, compare_lt, select

        a, b, c = self.columns
        started = time.perf_counter()
        total = add(a, b)
        mask = compare_lt(total, c)
        chosen = select(mask, a, b)
        duration = time.perf_counter() - started
        if self.recorder is not None:
            self.recorder.active = False
        results = total.planes + [mask] + chosen.planes
        for vector, rows in zip(results, self.expected):
            for loc, row in zip(vector.handle.rows, rows):
                if not np.array_equal(self.device.read_row(loc), row):
                    self.mismatches += 1
        total.free()
        mask.free()
        chosen.free()
        if self.recorder is not None:
            self.recorder.active = True
        return duration

    def phase(self, seconds: float) -> Dict[str, object]:
        """Whole queries until ``seconds`` of query time have passed.

        The phase clock runs only inside queries, so neither the checks
        nor the reference kernel count toward throughput.  Each query is
        a segment of its own, read against the kernel run right after
        it: the host's speed changes within a second."""
        before = layers.snapshot(self.device, self.recorder)
        clock, segments = 0.0, []
        while clock < seconds:
            duration = self.query()
            clock += duration
            segments.append({"duration": duration, "latencies": [duration],
                             "ref": reference.kernel_seconds()})
        after = layers.snapshot(self.device, self.recorder)
        return {"wall": clock, "requests": len(segments),
                "segments": segments, "before": before, "after": after}


def lib(spec: LibSpec, seed: int, seconds: float, trace: bool,
        corrupt: bool) -> None:
    work = LibWorkload(spec, seed, corrupt)
    profile = (
        work.device.profile() if spec.profiled else contextlib.nullcontext()
    )
    with profile:
        work.query()  # compiles the plans; part of set-up
        emit({"ready": True})
        if sys.stdin.readline().strip() != "go":
            return
        for _ in range(spec.warmup_queries):
            work.query()
        rss_kib = resident_kib()
        if trace:
            phases = [work.phase(seconds / 2)]
            work.recorder = layers.install()
            phases.append(work.phase(seconds / 2))
        else:
            phases = [work.phase(seconds)]
    emit({"phases": phases, "mismatches": work.mismatches,
          "rss_kib": rss_kib})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("serve", "lib"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args(argv)
    spec = WORKLOADS[args.workload]
    if args.role == "serve":
        asyncio.run(serve(spec))
    else:
        lib(spec, args.seed, args.seconds, bool(args.trace), args.corrupt)
    return 0


if __name__ == "__main__":
    sys.exit(main())
