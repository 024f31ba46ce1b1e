"""One benchmark for the whole stack.

    python3 bench/run.py [--workload W] [--seed N] [--seconds S]
                         [--trace [0|1]] [--out FILE]
    python3 bench/run.py compare OLD.json NEW.json

Runs each workload (default: all of them) with its device in a fresh
child process, checks every result bit-exactly, and prints every metric
by name with its unit.  The last stdout line of a run is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 1`` the run times each layer from outside the program and
prints the per-layer metrics instead of the end-to-end ones.
``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``; runs
that are compared must use the same value.  The metric names, units and
bounds live in ``BENCHMARK.json``; the workloads in ``workloads.py``.
See ``README.md`` for the rules.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import layers
import reference
from loadgen import Connection
from workloads import WORKLOADS, LibSpec, ServeSpec, ServeStream

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: Set-ups per run, each in a fresh device process; ``setup_s`` is their
#: median and the last one is measured.
SETUPS = 5
#: A run that takes longer than its measured seconds plus this (for the
#: set-ups, warm-up and verification) is stopped and fails.
RUN_SLACK_S = 120
#: Relative tolerance for "observing must not change what is observed".
SAME = 1e-9


class BenchError(RuntimeError):
    """A run that could not produce a result."""


def load_definition() -> Dict[str, object]:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    return json.loads(path.read_text())


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
class Child:
    """``devproc.py`` in a fresh interpreter, spoken to over pipes."""

    def __init__(self, args: List[str], tmpdir: str):
        env = dict(os.environ, TMPDIR=tmpdir)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        # A session of its own, so a hung child is killed together with
        # the worker processes it forked.
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "devproc.py"), *args],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=env, cwd=ROOT, start_new_session=True,
        )

    def read(self) -> Dict[str, object]:
        line = self.proc.stdout.readline()
        if not line:
            code = self.proc.wait()
            raise BenchError(f"device process exited with code {code}")
        return json.loads(line)

    def send(self, command: str) -> None:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()

    def command(self, command: str) -> Dict[str, object]:
        self.send(command)
        return self.read()

    def stop(self) -> None:
        """Ask the child to quit, then wait for it (kill if it hangs)."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.flush()
                self.proc.stdin.close()
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.wait()
        self.proc.stdout.close()


class SetupClock:
    """Times set-ups, each with the mean of this process's probes of the
    host's speed just before and after it (``reference.py``)."""

    def __init__(self):
        #: One ``{"duration", "ref"}`` record per set-up, like a segment.
        self.setups: List[Dict[str, float]] = []
        self._ref = reference.probe(reference.PROBE_S)

    def start(self) -> None:
        self._started = time.perf_counter()

    def stop(self) -> None:
        duration = time.perf_counter() - self._started
        ref = reference.probe(reference.PROBE_S)
        self.setups.append({"duration": duration, "ref": (self._ref + ref) / 2})
        self._ref = ref


# ----------------------------------------------------------------------
# Workload runners: each returns set-ups, phase records and counts
# ----------------------------------------------------------------------
def run_lib(spec: LibSpec, seed: int, seconds: float, trace: bool,
            setups: int, corrupt: bool, tmpdir: str) -> Dict[str, object]:
    args = ["lib", "--workload", spec.name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace))]
    if corrupt:
        args.append("--corrupt")
    clock = SetupClock()
    for i in range(setups):
        clock.start()
        child = Child(args, tmpdir)
        try:
            child.read()
            clock.stop()
            if i == setups - 1:
                out = child.command("go")
        finally:
            child.stop()
    # A query that fails raises and ends the child: no result.
    requests = sum(p["requests"] for p in out["phases"])
    return {"setups": clock.setups, "phases": out["phases"],
            "rss_kib": out["rss_kib"], "attempted": requests, "failed": 0,
            "mismatches": out["mismatches"], "errors": {}}


async def _run_serve(spec: ServeSpec, seed: int, seconds: float,
                     trace: bool, setups: int, corrupt: bool,
                     tmpdir: str) -> Dict[str, object]:
    clock = SetupClock()
    child: Optional[Child] = None
    conns: List[Connection] = []

    async def shut_down():
        for conn in conns:
            await conn.close()
        conns.clear()
        if child is not None:
            child.stop()

    def probe() -> float:
        """The reference kernel's time in both processes at once (the
        server's device thread and this client), averaged."""
        child.send("probe")
        here = reference.probe(reference.PROBE_S)
        return (here + child.read()["ref"]) / 2

    async def segment(seconds: float) -> Dict[str, object]:
        """Whole cycles for about ``seconds``, ending with every request
        answered."""
        for conn in conns:
            conn.latencies.clear()
            conn.recording = True
        # The client's own collector pauses would show up as server
        # latency; its garbage is acyclic, so collect between segments.
        gc.disable()
        try:
            start = time.perf_counter()
            await asyncio.gather(
                *(c.run_cycles(start + seconds) for c in conns)
            )
            duration = time.perf_counter() - start
        finally:
            gc.enable()
        for conn in conns:
            conn.recording = False
        return {"duration": duration,
                "latencies": [x for c in conns for x in c.latencies]}

    async def measured(seconds: float, command: str) -> Dict[str, object]:
        """Segments of ``spec.segment_s`` until ``seconds`` have passed,
        each with the mean of the probes just before and after it."""
        before = child.command(command)
        clock, segments = 0.0, []
        ref = probe()
        while clock < seconds:
            seg = await segment(min(spec.segment_s, seconds - clock))
            ref_after = probe()
            seg["ref"] = (ref + ref_after) / 2
            segments.append(seg)
            ref = ref_after
            clock += seg["duration"]
        after = child.command("snap")
        return {"wall": clock,
                "requests": sum(len(s["latencies"]) for s in segments),
                "segments": segments, "before": before, "after": after}

    try:
        for i in range(setups):
            clock.start()
            child = Child(["serve", "--workload", spec.name], tmpdir)
            port = child.read()["ready"]
            conns = [Connection(ServeStream(spec, seed, c))
                     for c in range(spec.connections)]
            for conn in conns:
                await conn.open("127.0.0.1", port)
            await asyncio.gather(*(c.setup() for c in conns))
            clock.stop()
            if i < setups - 1:
                await shut_down()
        # One untimed cycle, so the measured phase starts warm.
        await asyncio.gather(*(c.run_cycles(None) for c in conns))
        rss_kib = child.command("rss")["rss_kib"]
        if trace:
            phases = [await measured(seconds / 2, "snap"),
                      await measured(seconds / 2, "trace")]
        else:
            phases = [await measured(seconds, "snap")]
        await asyncio.gather(*(c.verify(corrupt) for c in conns))
        return {"setups": clock.setups, "phases": phases,
                "rss_kib": rss_kib,
                "attempted": sum(c.attempted for c in conns),
                "failed": sum(c.failed for c in conns),
                "mismatches": sum(c.mismatches for c in conns),
                "errors": dict(sum((c.errors for c in conns), Counter()))}
    finally:
        await shut_down()


def run_serve(spec: ServeSpec, *args) -> Dict[str, object]:
    return asyncio.run(_run_serve(spec, *args))


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def scale(seg: Dict[str, object], to_reference: bool) -> float:
    """Factor from a segment's (or set-up's) measured seconds to seconds
    on the reference host, or 1 to keep them as measured."""
    return reference.NOMINAL_S / seg["ref"] if to_reference else 1.0


def timings(phase: Dict[str, object], to_reference: bool) -> Dict[str, float]:
    """Throughput, and median and 90th-percentile latency, of a phase on
    the reference host or as measured.

    The tail is p90, not p99: above about p98 lie requests stalled by a
    garbage-collection pause, and a percentile there jumps between the
    two populations from run to run (see README.md)."""
    latencies, total = [], 0.0
    for seg in phase["segments"]:
        factor = scale(seg, to_reference)
        latencies += [x * factor for x in seg["latencies"]]
        total += seg["duration"] * factor
    if not latencies:
        raise BenchError("no request completed in the measured phase")
    p90 = (statistics.quantiles(latencies, n=10)[-1]
           if len(latencies) > 1 else latencies[0])
    return {"ops_per_s": len(latencies) / total,
            "p50_ms": statistics.median(latencies) * 1e3,
            "p90_ms": p90 * 1e3}


def setup_seconds(setups: List[Dict[str, float]], to_reference: bool) -> float:
    """Median set-up time, on the reference host or as measured."""
    return statistics.median(
        s["duration"] * scale(s, to_reference) for s in setups)


def host_speed(phase: Dict[str, object]) -> float:
    """How fast the host ran the reference kernel, relative to the
    reference host, over the phase's segments."""
    return reference.NOMINAL_S / statistics.median(
        seg["ref"] for seg in phase["segments"])


def end_to_end(phase: Dict[str, object], setups: List[Dict[str, float]],
               rss_kib: int) -> Dict[str, float]:
    """End-to-end metrics of an untraced phase."""
    values = {f"ref_{k}": v for k, v in timings(phase, True).items()}
    values.update(
        setup_s=setup_seconds(setups, True),
        ready_rss_mib=rss_kib / 1024,
    )
    return values


def modelled_per_request(phase: Dict[str, object]) -> float:
    """Modelled DRAM time (the paper's time) per request, in ns.  The
    phase runs whole cycles, so it is the same on every run and seed:
    it is recorded and compared exactly, not gated as a timing."""
    before, after = phase["before"]["device"], phase["after"]["device"]
    return (after["elapsed_ns"] - before["elapsed_ns"]) / phase["requests"]


def commands_per_request(phase: Dict[str, object]) -> float:
    before, after = phase["before"]["device"], phase["after"]["device"]
    return (after["commands"] - before["commands"]) / phase["requests"]


def per_layer(phases: List[Dict[str, object]]) -> Dict[str, float]:
    """Per-layer metrics of a traced run: phase 0 untraced, phase 1
    traced, of equal length."""
    plain, traced = phases
    out = layers.layer_metrics(
        traced["before"], traced["after"], traced["requests"], traced["wall"]
    )
    rate_plain = timings(plain, True)["ops_per_s"]
    rate_traced = timings(traced, True)["ops_per_s"]
    out["trace_overhead"] = 1.0 - rate_traced / rate_plain
    return out


def observation_changed(phases: List[Dict[str, object]]) -> List[str]:
    """Quantities the timing wrappers must not change, if they did."""
    plain, traced = phases
    changed = []
    for name, fn in (("modelled_ns_per_req", modelled_per_request),
                     ("dram.commands_per_req", commands_per_request)):
        a, b = fn(plain), fn(traced)
        if abs(a - b) > SAME * max(abs(a), abs(b), 1.0):
            changed.append(f"{name} {a!r} untraced vs {b!r} traced")
    return changed


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 definition: Dict[str, object], setups: int = SETUPS,
                 corrupt: bool = False) -> Dict[str, object]:
    """One run of one workload: the result object printed as the last
    line, plus a ``detail`` entry for ``--out`` files."""
    spec = WORKLOADS[name]
    runner = run_lib if isinstance(spec, LibSpec) else run_serve
    with tempfile.TemporaryDirectory(prefix=".bench_tmp", dir=ROOT) as tmp:
        raw = runner(spec, seed, seconds, trace, setups, corrupt, tmp)
    problems = []
    if raw["mismatches"]:
        problems.append(f"{raw['mismatches']} result(s) differ from the model")
    if trace:
        values = per_layer(raw["phases"])
        problems += observation_changed(raw["phases"])
        wanted = definition["per_layer"]
        detail = {}
    else:
        phase = raw["phases"][0]
        values = end_to_end(phase, raw["setups"], raw["rss_kib"])
        wanted = definition["end_to_end"]
        detail = {"samples": phase["requests"], "setups": raw["setups"],
                  "modelled_ns_per_req": modelled_per_request(phase),
                  "measured": dict(timings(phase, False),
                                   setup_s=setup_seconds(raw["setups"], False)),
                  "host_speed": host_speed(phase)}
    return {
        "correct": not problems,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
        "detail": dict(detail, workload=name, seed=seed, seconds=seconds,
                       trace=trace, problems=problems, errors=raw["errors"]),
    }


def format_result(result: Dict[str, object]) -> str:
    detail = result["detail"]
    lines = [f"{detail['workload']}  seed {detail['seed']}  "
             f"{detail['seconds']} s  trace {int(detail['trace'])}  "
             f"attempted {result['attempted']}  failed {result['failed']}"
             + (f"  latency samples {detail['samples']}"
                if "samples" in detail else "")]
    for name, metric in result["metrics"].items():
        lines.append(f"  {name:<36} {metric['value']:>16.6g} {metric['unit']}")
    if "modelled_ns_per_req" in detail:
        lines.append(f"  {'modelled DRAM time (exact)':<36} "
                     f"{detail['modelled_ns_per_req']!r:>16} ns/req")
    if "measured" in detail:
        lines.append(f"  as measured, on a host {detail['host_speed']:.3g}"
                     f"x the reference host's speed:")
        for name, value in detail["measured"].items():
            unit = {"ops_per_s": "req/s", "setup_s": "s"}.get(name, "ms")
            lines.append(f"    {name:<34} {value:>16.6g} {unit}")
    for problem in detail["problems"]:
        lines.append(f"  INCORRECT: {problem}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Result files and comparison
# ----------------------------------------------------------------------
def host_info() -> Dict[str, object]:
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "machine": platform.machine()}


def quartiles(values: List[float]):
    """First quartile, median and third quartile, as
    ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4))


def summarize(runs: List[Dict[str, object]]) -> Dict[str, Dict[str, float]]:
    """Median and quartiles of every metric over a list of runs."""
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = quartiles(values)
        out[name] = {"median": statistics.median(values), "q1": q1,
                     "q3": q3, "n": len(values)}
    return out


def write_results(path: Path, runs: List[Dict[str, object]],
                  seconds: float) -> None:
    """Append runs to a results file (created if absent) and refresh its
    per-workload summary.  Every run in a file measured ``seconds``."""
    doc = (json.loads(path.read_text()) if path.exists() else
           {"host": host_info(), "seconds": seconds, "runs": []})
    if doc["seconds"] != seconds:
        raise BenchError(f"{path} holds {doc['seconds']} s runs; "
                         f"not appending {seconds} s runs")
    doc["runs"].extend(runs)
    doc["summary"] = {}
    for workload, wl_runs in _by_workload(doc["runs"]).items():
        kinds = doc["summary"][workload] = {}
        for kind, traced in (("end_to_end", False), ("per_layer", True)):
            chosen = [r for r in wl_runs if r["detail"]["trace"] == traced]
            if chosen:
                kinds[kind] = summarize(chosen)
    path.write_text(json.dumps(doc, indent=1) + "\n")


def _by_workload(runs) -> Dict[str, List[Dict[str, object]]]:
    """Runs grouped by workload, each group in file order."""
    grouped: Dict[str, List[Dict[str, object]]] = {}
    for run in runs:
        grouped.setdefault(run["detail"]["workload"], []).append(run)
    return grouped


def verdict(old: List[float], new: List[float], better: str,
            bound: float) -> str:
    """improved / unchanged / regressed / unresolved (see README.md)."""
    sign = 1.0 if better == "higher" else -1.0
    med_old, med_new = statistics.median(old), statistics.median(new)
    q1, _, q3 = quartiles(old)
    pairs = list(zip(old, new))
    wins = sum(1 for o, n in pairs if sign * (n - o) > 0)
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
            and sign * (med_new - med_old) > q3 - q1):
        return "improved"
    scale = abs(med_old) or 1.0
    worse = sign * (med_old - med_new) / scale
    if (q3 - q1) / scale > bound:
        if min(sign * n for n in new) > max(sign * o for o in old):
            return "unchanged"
        if worse > bound and max(sign * n for n in new) < min(
                sign * o for o in old):
            return "regressed"
        return "unresolved"
    return "regressed" if worse > bound else "unchanged"


def compare(old_path: Path, new_path: Path,
            definition: Dict[str, object]) -> int:
    """Print one verdict row per (metric, workload); 1 if any regressed.
    A rise in failures counts as a regression; a changed modelled DRAM
    time is flagged, since a model change may be intended.

    Run *i* of a workload in OLD is paired with run *i* in NEW; files
    whose run length or paired seeds differ are refused."""
    old_doc = json.loads(old_path.read_text())
    new_doc = json.loads(new_path.read_text())
    if old_doc["seconds"] != new_doc["seconds"]:
        raise BenchError(f"{old_path} holds {old_doc['seconds']} s runs, "
                         f"{new_path} {new_doc['seconds']} s runs")
    old_runs = _by_workload(old_doc["runs"])
    new_runs = _by_workload(new_doc["runs"])
    regressed = False
    print(f"{'metric':<22} {'workload':<13} {'old median':>12} "
          f"{'new median':>12} {'change':>8}  verdict")
    for workload in sorted(set(old_runs) & set(new_runs)):
        old = [r for r in old_runs[workload] if not r["detail"]["trace"]]
        new = [r for r in new_runs[workload] if not r["detail"]["trace"]]
        if not old or not new:
            continue
        for i, (a, b) in enumerate(zip(old, new)):
            if a["detail"]["seed"] != b["detail"]["seed"]:
                raise BenchError(
                    f"{workload} run {i + 1}: seed {a['detail']['seed']} "
                    f"in {old_path}, {b['detail']['seed']} in {new_path}")
        for metric in definition["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in old]
            b = [r["metrics"][name]["value"] for r in new]
            result = verdict(a, b, metric["better"], metric["bound"])
            regressed |= result == "regressed"
            med_a, med_b = statistics.median(a), statistics.median(b)
            change = (med_b - med_a) / med_a if med_a else 0.0
            print(f"{name:<22} {workload:<13} {med_a:>12.6g} "
                  f"{med_b:>12.6g} {change:>+8.1%}  {result}")
        rate_old = _error_rate(old)
        rate_new = _error_rate(new)
        if rate_new > rate_old:
            regressed = True
            print(f"{'failed/attempted':<22} {workload:<13} "
                  f"{rate_old:>12.6g} {rate_new:>12.6g} {'':>8}  "
                  f"ERRORS ROSE")
        model_old = {r["detail"].get("modelled_ns_per_req") for r in old}
        model_new = {r["detail"].get("modelled_ns_per_req") for r in new}
        if model_old != model_new:
            print(f"{'modelled_ns_per_req':<22} {workload:<13} "
                  f"{sorted(model_old, key=str)} -> {sorted(model_new, key=str)}"
                  f"  MODEL CHANGED")
    return 1 if regressed else 0


def _error_rate(runs) -> float:
    return (sum(r["failed"] for r in runs)
            / max(1, sum(r["attempted"] for r in runs)))


# ----------------------------------------------------------------------
def _timeout(signum, frame):
    raise TimeoutError("run exceeded its time limit")


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        definition = load_definition()
        if not (ROOT / "src" / "repro" / "__init__.py").is_file():
            raise BenchError(f"no program source under {ROOT / 'src'}")
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare OLD.json NEW.json", file=sys.stderr)
            return 2
        try:
            return compare(Path(argv[1]), Path(argv[2]), definition)
        except BenchError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 2

    parser = argparse.ArgumentParser(
        description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(definition["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", type=Path,
                        help="append the runs to this results file")
    args = parser.parse_args(argv)

    names = [args.workload] if args.workload else list(WORKLOADS)
    runs: List[Dict[str, object]] = []
    signal.signal(signal.SIGALRM, _timeout)
    # Terminated runs still stop their device processes (``finally``).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    status = 0
    for name in names:
        signal.alarm(math.ceil(args.seconds) + RUN_SLACK_S)
        try:
            result = run_workload(name, args.seed, args.seconds,
                                  bool(args.trace), definition)
        except (BenchError, TimeoutError, ConnectionError) as exc:
            print(f"bench: {name}: {exc}", file=sys.stderr)
            return 1
        finally:
            signal.alarm(0)
        runs.append(result)
        print(format_result(result))
        line = {k: result[k] for k in
                ("correct", "attempted", "failed", "metrics")}
        print(json.dumps(line), flush=True)
        if not result["correct"]:
            status = 1
    if args.out is not None:
        write_results(args.out, runs, args.seconds)
    return status


if __name__ == "__main__":
    sys.exit(main())
