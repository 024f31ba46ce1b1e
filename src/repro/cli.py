"""Command-line interface: regenerate any paper experiment directly.

Usage::

    python -m repro list                 # available experiments
    python -m repro table2 [--trials N]
    python -m repro table3
    python -m repro fig9
    python -m repro fig10 [--users N] [--weeks W]
    python -m repro fig11 [--rows N] [--bits B]
    python -m repro fig12 [--elements E]
    python -m repro demo                 # quick end-to-end smoke demo
    python -m repro profile [WORKLOAD] [--chrome-trace FILE] [--jsonl FILE]
    python -m repro metrics [WORKLOAD]   # Prometheus/JSON metric exposition
    python -m repro top                  # per-op latency + plan-cache view
    python -m repro top --url URL        # same view for a remote server
    python -m repro bench [--jobs N]     # serial vs multi-process Monte Carlo
    python -m repro serve [--port P]     # async bulk-bitwise NDJSON service
    python -m repro loadgen [--clients N]  # deterministic SLO load soak

Every command prints the same formatted table the corresponding
benchmark writes to ``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np


def _cmd_table2(args: argparse.Namespace) -> None:
    from repro.circuit import (
        format_table2,
        max_tolerable_variation,
        table2_experiment,
    )

    print(format_table2(table2_experiment(trials=args.trials, jobs=args.jobs)))
    print(f"\nadversarial-corner tolerance: "
          f"+/-{max_tolerable_variation() * 100:.2f}%  (paper: ~6%)")


def _cmd_table3(args: argparse.Namespace) -> None:
    from repro.energy import format_table3, table3_experiment

    print(format_table3(table3_experiment()))


def _cmd_fig9(args: argparse.Namespace) -> None:
    from repro.perf import figure9_experiment, format_figure9

    print(format_figure9(figure9_experiment()))


def _cmd_fig10(args: argparse.Namespace) -> None:
    from repro.apps import bitmap_index as bi
    from repro.sim import AmbitContext, CpuContext

    workload = bi.generate_workload(args.users, args.weeks, seed=10)
    base = bi.run_query(CpuContext(), workload, args.weeks)
    ambit = bi.run_query(AmbitContext(), workload, args.weeks)
    assert base.unique_active_every_week == ambit.unique_active_every_week
    print(f"Figure 10 point: u={args.users:,} users, w={args.weeks} weeks")
    print(f"  unique active every week : {base.unique_active_every_week:,}")
    print(f"  baseline : {base.elapsed_ns / 1e6:9.2f} ms")
    print(f"  Ambit    : {ambit.elapsed_ns / 1e6:9.2f} ms "
          f"({base.elapsed_ns / ambit.elapsed_ns:.1f}X; paper: 5.4-6.6X)")


def _cmd_fig11(args: argparse.Namespace) -> None:
    from repro.apps.bitweaving import (
        BitWeavingColumn,
        scan_range_ambit,
        scan_range_baseline,
    )
    from repro.sim import AmbitContext, CpuContext
    from repro.workloads import column_values

    rng = np.random.default_rng(20)
    values = column_values(args.rows, args.bits, rng)
    column = BitWeavingColumn.encode(values, args.bits)
    c1, c2 = (1 << args.bits) // 4, (3 << args.bits) // 4
    base_ctx, ambit_ctx = CpuContext(), AmbitContext()
    _, count_b = scan_range_baseline(base_ctx, column, c1, c2)
    _, count_a = scan_range_ambit(ambit_ctx, column, c1, c2)
    assert count_a == count_b
    print(f"Figure 11 point: b={args.bits} bits, r={args.rows:,} rows, "
          f"predicate [{c1}, {c2}]")
    print(f"  count(*) : {count_a:,}")
    print(f"  baseline : {base_ctx.elapsed_ns / 1e6:9.2f} ms")
    print(f"  Ambit    : {ambit_ctx.elapsed_ns / 1e6:9.2f} ms "
          f"({base_ctx.elapsed_ns / ambit_ctx.elapsed_ns:.1f}X; "
          f"paper: 1.8-11.8X)")


def _cmd_fig12(args: argparse.Namespace) -> None:
    from repro.apps.sets import AmbitSetOps, BitsetSetOps, RBTreeSetOps
    from repro.sim.cpu import CpuModel
    from repro.workloads import random_sets

    domain, m = 512 * 1024, 15
    cpu = CpuModel()
    sets = random_sets(m, args.elements, domain, np.random.default_rng(1))
    print(f"Figure 12 point: m={m} sets, e={args.elements} of N={domain:,}")
    print(f"{'op':>14} {'rbtree us':>10} {'bitset us':>10} {'ambit us':>10}")
    impls = {
        "rbtree": RBTreeSetOps(cpu),
        "bitset": BitsetSetOps(domain, cpu),
        "ambit": AmbitSetOps(domain, cpu),
    }
    for op in ("union", "intersection", "difference"):
        times = {
            name: getattr(impl, op)(sets).elapsed_ns / 1e3
            for name, impl in impls.items()
        }
        print(f"{op:>14} {times['rbtree']:>10.1f} {times['bitset']:>10.1f} "
              f"{times['ambit']:>10.1f}")


def _cmd_demo(args: argparse.Namespace) -> None:
    from repro import AmbitBitSystem, DramGeometry, SubarrayGeometry

    system = AmbitBitSystem(
        geometry=DramGeometry(
            banks=2,
            subarrays_per_bank=2,
            subarray=SubarrayGeometry(rows=32, row_bytes=1024),
        )
    )
    rng = np.random.default_rng(0)
    bits_a = rng.random(50_000) < 0.5
    bits_b = rng.random(50_000) < 0.5
    a = system.from_bits(bits_a)
    b = system.from_bits(bits_b, like=a)
    c = (a & b) | ~a
    assert np.array_equal(c.to_bits(), (bits_a & bits_b) | ~bits_a)
    acts, pres, _, _ = system.device.chip.trace.counts()
    print("demo: (a & b) | ~a over 50,000 bits, computed in simulated DRAM")
    print(f"  popcount(result) = {c.popcount():,}")
    print(f"  {acts} ACTIVATEs / {pres} PRECHARGEs issued, "
          f"{system.elapsed_ns:,.0f} ns bank-parallel makespan")
    print("  verified bit-exact against numpy")


def _cmd_profile(args: argparse.Namespace) -> None:
    from repro.obs.sinks import ChromeTraceSink, JsonLinesSink
    from repro.perf.profiling import profile_geometry, run_profile_workload

    sinks = []
    if args.chrome_trace:
        sinks.append(ChromeTraceSink(args.chrome_trace))
    if args.jsonl:
        sinks.append(JsonLinesSink(args.jsonl))
    try:
        report = run_profile_workload(
            args.workload,
            repeats=args.repeats,
            geometry=profile_geometry(row_bytes=args.row_bytes),
            sinks=sinks,
        )
    finally:
        for sink in sinks:
            sink.close()
    print(f"profile: workload={args.workload} repeats={args.repeats} "
          f"row_bytes={args.row_bytes} (bit-exact vs numpy)")
    print(report.format_table())
    if args.chrome_trace:
        print(f"\nChrome trace written to {args.chrome_trace} "
              f"(load in chrome://tracing or https://ui.perfetto.dev)")
    if args.jsonl:
        print(f"JSON-lines event log written to {args.jsonl}")


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.errors import ConfigError
    from repro.perf.profiling import profile_geometry, run_profile_workload

    try:
        report = run_profile_workload(
            args.workload,
            repeats=args.repeats,
            geometry=profile_geometry(row_bytes=args.row_bytes),
        )
    except ConfigError as exc:
        print(f"metrics: {exc}", file=sys.stderr)
        return 2
    registry = report.device.metrics
    if args.format == "prom":
        text = registry.render_prometheus()
    else:
        import json

        text = json.dumps(registry.snapshot(), indent=2, sort_keys=True)
    if args.jsonl:
        count = registry.write_jsonl(args.jsonl)
        print(f"{count} metric sample(s) written to {args.jsonl}",
              file=sys.stderr)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")
        print(f"metrics written to {args.output}", file=sys.stderr)
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    if args.serve is not None:
        from repro.obs.metrics import MetricsServer

        with MetricsServer(registry, port=args.serve) as server:
            print(f"serving {server.url} (Ctrl-C to stop)", file=sys.stderr)
            try:
                import threading

                threading.Event().wait()
            except KeyboardInterrupt:
                pass
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    import numpy as np

    if args.url:
        import json
        import urllib.error
        import urllib.request

        from repro.obs.metrics import format_top, registry_from_snapshot

        url = args.url.rstrip("/")
        if not url.startswith("http"):
            url = f"http://{url}"
        # Accept the exposition paths too: HOST:P, HOST:P/metrics and
        # HOST:P/metrics.json all address the same server.
        for suffix in ("/metrics.json", "/metrics"):
            if url.endswith(suffix):
                url = url[: -len(suffix)]
                break
        try:
            with urllib.request.urlopen(f"{url}/metrics.json", timeout=10) as r:
                snapshot = json.loads(r.read())
        except (urllib.error.URLError, OSError, ValueError) as exc:
            print(f"top: cannot scrape {url}/metrics.json: {exc}",
                  file=sys.stderr)
            return 2
        print(f"top: remote registry at {url}\n")
        print(format_top(registry_from_snapshot(snapshot)))
        return 0

    from repro.core.device import AmbitDevice
    from repro.core.microprograms import BulkOp
    from repro.dram.chip import RowLocation
    from repro.dram.geometry import DramGeometry, SubarrayGeometry
    from repro.obs.metrics import format_top

    geometry = DramGeometry(
        banks=args.banks,
        subarrays_per_bank=2,
        subarray=SubarrayGeometry(rows=64, row_bytes=args.row_bytes),
    )
    rng = np.random.default_rng(11)
    device = AmbitDevice(geometry=geometry)
    words = geometry.subarray.words_per_row
    rows_per_bank = 6
    dst, src1, src2 = [], [], []
    for bank in range(args.banks):
        for i in range(rows_per_bank):
            dst.append(RowLocation(bank, 0, 2 + i))
            src1.append(RowLocation(bank, 0, 2 + rows_per_bank + i))
            src2.append(RowLocation(bank, 0, 2 + 2 * rows_per_bank + i))
    for loc in src1 + src2:
        device.write_row(
            loc, rng.integers(0, 2**63, size=words, dtype=np.uint64)
        )
    for op in (BulkOp.AND, BulkOp.XOR, BulkOp.NOT):
        device.run_rows(op, dst, src1, src2 if op.arity >= 2 else None)
    print(f"top: {args.banks}-bank workload\n")
    print(format_top(device.metrics))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import json

    from repro.parallel.bench import (
        ParallelBenchConfig,
        format_parallel_bench,
        run_parallel_bench,
    )
    from repro.parallel.pmap import default_jobs

    config = ParallelBenchConfig(
        jobs=args.jobs if args.jobs is not None else default_jobs(),
        mc_trials=args.trials,
        repeats=args.repeats,
    )
    payload = run_parallel_bench(config)
    print(format_parallel_bench(payload))
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"\npayload written to {args.output}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.errors import ConfigError
    from repro.faults import ChaosConfig, format_chaos, run_chaos
    from repro.log import configure_logging

    configure_logging(args.log_level, json_format=args.log_json)
    try:
        report = run_chaos(
            ChaosConfig(
                ops=args.ops,
                seed=args.seed,
                fault_rate=args.fault_rate,
                banks=args.banks,
                row_bytes=args.row_bytes,
                recovery=not args.no_recovery,
            )
        )
    except ConfigError as exc:
        print(f"chaos: {exc}", file=sys.stderr)
        return 2
    print(format_chaos(report))
    if args.scrape:
        print()
        print(report.scrape)
    return report.exit_code


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.errors import ConfigError
    from repro.log import configure_logging
    from repro.serve import BulkBitwiseServer, ServeConfig

    configure_logging(args.log_level, json_format=args.log_json)
    config = ServeConfig(
        host=args.host,
        port=args.port,
        banks=args.banks,
        rows=args.rows,
        row_bytes=args.row_bytes,
        max_queue=args.max_queue,
        max_batch_ops=args.max_batch_ops,
        max_vectors=args.max_vectors,
        max_rows=args.max_rows,
        max_inflight=args.max_inflight,
        fault_rate=args.fault_rate,
        seed=args.seed,
        metrics_port=args.metrics_port,
        trace=not args.no_trace,
        max_spans=args.max_spans,
        slo_ms=args.slo_ms,
        flight_path=args.flight_recorder,
    )

    async def _serve() -> None:
        server = BulkBitwiseServer(config)
        await server.start()
        print(f"serving bulk-bitwise NDJSON on "
              f"{config.host}:{server.port}", file=sys.stderr)
        if server.metrics_server is not None:
            base = server.metrics_server.url.rsplit("/metrics", 1)[0]
            print(f"metrics at {server.metrics_server.url} "
                  f"(watch with: repro top --url {base})",
                  file=sys.stderr)
        if config.trace:
            print(f"request spans on (query with: repro spans --connect "
                  f"{config.host}:{server.port} --slowest 10)",
                  file=sys.stderr)
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.close()

    try:
        asyncio.run(_serve())
    except ConfigError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("serve: stopped", file=sys.stderr)
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.errors import ConfigError
    from repro.serve.loadgen import (
        LoadGenConfig,
        format_loadgen,
        run_loadgen,
    )

    try:
        report = run_loadgen(LoadGenConfig(
            clients=args.clients,
            ops=args.ops,
            bits=args.bits,
            seed=args.seed,
            concurrency=args.concurrency,
            p99_slo_ms=args.p99_slo_ms,
            connect=args.connect,
            fault_rate=args.fault_rate,
            quota_probe=not args.no_quota_probe,
            burst=args.burst,
            expect_coalescing=args.expect_coalescing,
            expect_backpressure=args.expect_backpressure,
            expect_quota=args.expect_quota,
            expect_faults=args.expect_faults,
        ))
    except ConfigError as exc:
        print(f"loadgen: {exc}", file=sys.stderr)
        return 2
    print(format_loadgen(report))
    return report.exit_code


def _cmd_spans(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro.obs.spans import (
        chrome_trace,
        format_spans_table,
        format_trace_tree,
        validate_trace,
    )

    host, _, port_raw = args.connect.rpartition(":")
    host = host or "127.0.0.1"
    try:
        port = int(port_raw)
    except ValueError:
        print(f"spans: bad --connect {args.connect!r}; expected HOST:PORT",
              file=sys.stderr)
        return 2

    request = {"cmd": "spans"}
    if args.trace:
        request["trace"] = args.trace
    else:
        request["slowest"] = args.slowest
        if args.tenant:
            request["tenant"] = args.tenant
        if args.op:
            request["op"] = args.op

    async def _rpc():
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(json.dumps(request).encode() + b"\n")
            await writer.drain()
            line = await reader.readline()
            if not line:
                raise ConnectionError("server closed the connection")
            return json.loads(line)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    try:
        response = asyncio.run(_rpc())
    except (ConnectionError, OSError, ValueError) as exc:
        print(f"spans: cannot query {host}:{port}: {exc}", file=sys.stderr)
        return 2
    if not response.get("ok"):
        print(f"spans: {response.get('error')}: {response.get('message')}",
              file=sys.stderr)
        return 1

    traces = response.get("spans", [])
    if args.json:
        print(json.dumps(traces, indent=2, sort_keys=True))
    elif args.trace:
        for trace in traces:
            print(format_trace_tree(trace))
    else:
        print(format_spans_table(traces))
        if "recorded" in response:
            print(f"\n{len(traces)} of {response['recorded']} recorded "
                  f"trace(s) shown")
    if args.chrome:
        with open(args.chrome, "w") as handle:
            json.dump(chrome_trace(traces), handle)
            handle.write("\n")
        print(f"chrome trace written to {args.chrome} "
              f"(open in chrome://tracing or https://ui.perfetto.dev)")
    if args.check:
        problems = []
        for trace in traces:
            problems.extend(
                f"{trace.get('trace', '?')}: {problem}"
                for problem in validate_trace(trace)
            )
        if problems:
            print("\nspan check FAILED:", file=sys.stderr)
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
            return 1
        print(f"span check OK: {len(traces)} trace(s) well-formed, "
              f"stage breakdowns sum to the wall clock")
    return 0


def _cmd_report(args: argparse.Namespace) -> None:
    from repro.report import ReportConfig, generate_report

    text = generate_report(ReportConfig(fast=args.fast))
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print(f"report written to {args.output}")
    else:
        print(text)


def _cmd_compile(args: argparse.Namespace) -> None:
    from repro.compile import compile_expr, parse_expr, variables

    expr = parse_expr(args.expr)
    cop = compile_expr(expr, name=args.name)
    print(f"{cop.value}: {args.expr}")
    print(f"  inputs : {', '.join(cop.inputs)}")
    print(f"  steps  : {len(cop.steps)}  "
          f"({cop.num_aap} AAP + {cop.num_ap} AP, "
          f"{cop.num_temps} scratch row(s))")
    for line in cop.describe():
        print(f"    {line}")

    if args.stats or args.run:
        from repro.core.device import AmbitDevice
        from repro.dram.geometry import small_test_geometry

        device = AmbitDevice(geometry=small_test_geometry(
            rows=64, row_bytes=args.row_bytes
        ))
        dk = cop.arity + cop.num_temps
        plan = device.controller.plan_cache.get(
            cop,
            dk,
            *range(cop.arity),
            temps=tuple(cop.arity + t for t in range(cop.num_temps)),
        )
        print(f"  plan   : {plan.totals.num_commands} bus commands, "
              f"{plan.total_ns:.1f} ns per {args.row_bytes}-byte row")

    if args.run:
        from repro.apps.bitvector import AmbitBitSystem
        from repro.compile.ir import evaluate

        system = AmbitBitSystem(device=device)
        rng = np.random.default_rng(args.seed)
        nbits = device.row_bits
        names = variables(expr)
        bits = {
            name: rng.integers(0, 2, nbits).astype(bool) for name in names
        }
        vectors = {
            name: system.from_bits(bits[name]) for name in names
        }
        out = vectors[names[0]].compute(cop, **vectors)
        want = evaluate(expr, bits)
        ok = bool(np.array_equal(out.to_bits(), want))
        print(f"  run    : {nbits} lanes on device -- "
              f"{'OK (matches the numpy oracle)' if ok else 'MISMATCH'}")
        if not ok:
            raise SystemExit(1)


def _cmd_list(args: argparse.Namespace) -> None:
    print("experiments:")
    for name, doc in (
        ("table2", "TRA failure rate vs process variation (Section 6)"),
        ("table3", "energy of bulk bitwise operations (Section 7)"),
        ("fig9", "throughput across five systems (Section 7)"),
        ("fig10", "bitmap-index query performance (Section 8.1)"),
        ("fig11", "BitWeaving column scans (Section 8.2)"),
        ("fig12", "set operations (Section 8.3)"),
        ("demo", "end-to-end functional smoke demo"),
        ("compile", "compile a boolean expression to a MAJ/NOT microprogram"),
        ("profile", "per-op counters + optional Chrome trace"),
        ("metrics", "metrics registry exposition (Prometheus text / JSON)"),
        ("top", "per-op latency + plan-cache view"),
        ("bench", "serial vs multi-process Monte Carlo benchmark"),
        ("chaos", "fault-injection soak with detection and recovery"),
        ("serve", "NDJSON/TCP bulk-bitwise service (coalescing front door)"),
        ("loadgen", "deterministic client swarm + SLO soak against serve"),
        ("spans", "query a serve instance's request traces (socket to "
                  "silicon)"),
        ("report", "full markdown reproduction report"),
    ):
        print(f"  {name:<8} {doc}")


def _add_logging_flags(p: argparse.ArgumentParser) -> None:
    """`--log-level` / `--log-json` for the long-running surfaces."""
    p.add_argument("--log-level", default="warning",
                   choices=("debug", "info", "warning", "error", "critical"),
                   help="stderr log level for the repro.* loggers")
    p.add_argument("--log-json", action="store_true",
                   help="one JSON object per log line instead of text")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Ambit reproduction: regenerate the paper's experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments").set_defaults(func=_cmd_list)

    p = sub.add_parser("table2", help="TRA reliability Monte Carlo")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--jobs", type=int, default=None,
                   help="fan variation levels across N processes "
                        "(bit-identical to the serial run)")
    p.set_defaults(func=_cmd_table2)

    sub.add_parser("table3", help="energy table").set_defaults(func=_cmd_table3)
    sub.add_parser("fig9", help="throughput figure").set_defaults(func=_cmd_fig9)

    p = sub.add_parser("fig10", help="bitmap-index point")
    p.add_argument("--users", type=int, default=8_000_000)
    p.add_argument("--weeks", type=int, default=4)
    p.set_defaults(func=_cmd_fig10)

    p = sub.add_parser("fig11", help="BitWeaving point")
    p.add_argument("--rows", type=int, default=2_000_000)
    p.add_argument("--bits", type=int, default=16)
    p.set_defaults(func=_cmd_fig11)

    p = sub.add_parser("fig12", help="set-operations point")
    p.add_argument("--elements", type=int, default=256)
    p.set_defaults(func=_cmd_fig12)

    sub.add_parser("demo", help="functional demo").set_defaults(func=_cmd_demo)

    p = sub.add_parser(
        "compile",
        help="compile a boolean expression to an Ambit microprogram",
    )
    p.add_argument("--expr", required=True, metavar="EXPR",
                   help="expression over &, |, ^, ~, maj(a,b,c), "
                        "mux(sel,a,b), e.g. 'a & ~(b ^ c)'")
    p.add_argument("--name", default=None,
                   help="operation name (default: derived fingerprint)")
    p.add_argument("--stats", action="store_true",
                   help="also print the bound plan's command/latency cost")
    p.add_argument("--run", action="store_true",
                   help="execute one row batch on a small device and "
                        "verify against the numpy oracle")
    p.add_argument("--row-bytes", type=int, default=512,
                   help="row size of the stats/run device")
    p.add_argument("--seed", type=int, default=7,
                   help="input seed for --run")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser(
        "profile",
        help="profile a bulk-op workload (counters + Chrome trace)",
    )
    p.add_argument(
        "workload",
        nargs="?",
        default="all",
        help="one of: and, or, not, nand, nor, xor, xnor, maj, copy, all",
    )
    p.add_argument("--repeats", type=int, default=4,
                   help="row-sized instances per op")
    p.add_argument("--row-bytes", type=int, default=512,
                   help="row size of the profiled device")
    p.add_argument("--chrome-trace", default=None, metavar="FILE",
                   help="write a chrome://tracing / Perfetto trace_event JSON")
    p.add_argument("--jsonl", default=None, metavar="FILE",
                   help="write the raw event stream as JSON lines")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser(
        "metrics",
        help="run a workload and expose its metrics registry "
             "(Prometheus text or JSON snapshot)",
    )
    p.add_argument(
        "workload",
        nargs="?",
        default="all",
        help="one of: and, or, not, nand, nor, xor, xnor, maj, copy, all",
    )
    p.add_argument("--repeats", type=int, default=4,
                   help="row-sized instances per op")
    p.add_argument("--row-bytes", type=int, default=512,
                   help="row size of the profiled device")
    p.add_argument("--format", choices=("prom", "json"), default="prom",
                   help="exposition format on stdout")
    p.add_argument("--jsonl", default=None, metavar="FILE",
                   help="also write one JSON line per metric sample")
    p.add_argument("--output", default=None, metavar="FILE",
                   help="write the exposition to a file instead of stdout")
    p.add_argument("--serve", type=int, default=None, metavar="PORT",
                   help="after the run, serve /metrics on PORT until Ctrl-C")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser(
        "top",
        help="run a small workload and print the per-op latency / "
             "plan-cache view",
    )
    p.add_argument("--banks", type=int, default=4)
    p.add_argument("--row-bytes", type=int, default=512)
    p.add_argument("--url", default=None, metavar="URL",
                   help="scrape a remote MetricsServer (/metrics.json) "
                        "instead of running a local workload")
    p.set_defaults(func=_cmd_top)

    p = sub.add_parser(
        "bench",
        help="serial vs multi-process Monte Carlo wall-clock benchmark",
    )
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: schedulable CPUs)")
    p.add_argument("--trials", type=int, default=8_000_000,
                   help="Monte Carlo trials")
    p.add_argument("--repeats", type=int, default=3,
                   help="timings per arm; best is kept")
    p.add_argument("--output", default=None, metavar="FILE",
                   help="also write the JSON payload")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "chaos",
        help="fault-injection soak: run bulk ops under a deterministic "
             "fault plan; exit 1 on any unrecovered fault or bit mismatch",
    )
    p.add_argument("--ops", type=int, default=500,
                   help="bulk operations to execute")
    p.add_argument("--seed", type=int, default=0,
                   help="seeds the workload and the fault plan")
    p.add_argument("--fault-rate", type=float, default=1e-3,
                   help="expected faults per op per subarray")
    p.add_argument("--banks", type=int, default=2)
    p.add_argument("--row-bytes", type=int, default=64)
    p.add_argument("--no-recovery", action="store_true",
                   help="detect only: every perturbed result counts as "
                        "unrecovered (proves detection is live)")
    p.add_argument("--scrape", action="store_true",
                   help="also print the ambit_faults_* Prometheus families")
    _add_logging_flags(p)
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser(
        "serve",
        help="NDJSON/TCP bulk-bitwise service with a coalescing front "
             "door (Ctrl-C to stop)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (0 = ephemeral; the bound port is "
                        "printed)")
    p.add_argument("--banks", type=int, default=4)
    p.add_argument("--rows", type=int, default=512,
                   help="rows per subarray (capacity)")
    p.add_argument("--row-bytes", type=int, default=512)
    p.add_argument("--max-queue", type=int, default=4096,
                   help="admission queue bound; overflow is rejected "
                        "with a backpressure error")
    p.add_argument("--max-batch-ops", type=int, default=512,
                   help="max requests fused into one drain cycle (1 "
                        "dispatches one request per engine batch)")
    p.add_argument("--max-vectors", type=int, default=16,
                   help="per-tenant vector quota (0 = unlimited)")
    p.add_argument("--max-rows", type=int, default=512,
                   help="per-tenant row quota (0 = unlimited)")
    p.add_argument("--max-inflight", type=int, default=64,
                   help="per-tenant in-flight op quota (0 = unlimited)")
    p.add_argument("--fault-rate", type=float, default=0.0,
                   help="> 0 injects a deterministic fault plan under "
                        "the live service")
    p.add_argument("--seed", type=int, default=0,
                   help="seeds the fault plan")
    p.add_argument("--metrics-port", type=int, default=None, metavar="PORT",
                   help="also serve /metrics and /metrics.json (watch "
                        "remotely with: repro top --url HOST:PORT)")
    p.add_argument("--no-trace", action="store_true",
                   help="disable request spans (they are on by default; "
                        "see repro spans)")
    p.add_argument("--max-spans", type=int, default=512,
                   help="completed request traces kept in the span ring")
    p.add_argument("--slo-ms", type=float, default=0.0,
                   help="> 0 arms the flight recorder's latency trigger "
                        "(any request slower than this dumps the ring)")
    p.add_argument("--flight-recorder", default=None, metavar="FILE",
                   help="append the span ring to this JSONL file on an "
                        "unrecovered fault, backpressure rejection or "
                        "SLO breach")
    _add_logging_flags(p)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "loadgen",
        help="deterministic client swarm + SLO soak against the serve "
             "front door; exit 1 on bit mismatch, SLO miss or a failed "
             "expectation",
    )
    p.add_argument("--clients", type=int, default=64,
                   help="concurrent tenants")
    p.add_argument("--ops", type=int, default=16,
                   help="awaited bulk ops per client")
    p.add_argument("--bits", type=int, default=4096,
                   help="vector width in bits")
    p.add_argument("--seed", type=int, default=0,
                   help="seeds every client schedule and payload")
    p.add_argument("--concurrency", type=int, default=128,
                   help="max simultaneous client connections")
    p.add_argument("--p99-slo-ms", type=float, default=500.0,
                   help="p99 request-latency SLO")
    p.add_argument("--connect", default=None, metavar="HOST:PORT",
                   help="target an already-running server instead of "
                        "self-hosting one")
    p.add_argument("--fault-rate", type=float, default=0.0,
                   help="self-hosted server fault-injection rate")
    p.add_argument("--no-quota-probe", action="store_true",
                   help="skip the deliberate vector-quota probe")
    p.add_argument("--burst", type=int, default=96,
                   help="pipelined burst size used to provoke "
                        "backpressure (0 = skip)")
    p.add_argument("--expect-coalescing", action="store_true",
                   help="fail unless the server fused >= 1 batch")
    p.add_argument("--expect-backpressure", action="store_true",
                   help="fail unless the burst drew >= 1 backpressure "
                        "rejection")
    p.add_argument("--expect-quota", action="store_true",
                   help="fail unless the probe drew >= 1 quota rejection")
    p.add_argument("--expect-faults", action="store_true",
                   help="fail unless >= 1 fault was injected and every "
                        "one was recovered")
    p.set_defaults(func=_cmd_loadgen)

    p = sub.add_parser(
        "spans",
        help="query a serve instance's request traces: slowest-N stage "
             "table, one-trace span tree, Chrome export",
    )
    p.add_argument("trace", nargs="?", default=None,
                   help="a trace id to print as a span tree "
                        "(default: list recent traces)")
    p.add_argument("--connect", required=True, metavar="HOST:PORT",
                   help="the serve instance to query")
    p.add_argument("--slowest", type=int, default=10,
                   help="list the N slowest recorded requests")
    p.add_argument("--tenant", default=None,
                   help="only this tenant's requests")
    p.add_argument("--op", default=None,
                   help="only this bulk op (e.g. and, xor)")
    p.add_argument("--chrome", default=None, metavar="FILE",
                   help="also write a Chrome trace_event JSON of the "
                        "listed traces, one lane per request")
    p.add_argument("--check", action="store_true",
                   help="validate every listed trace (stage sums, span "
                        "tree shape); exit 1 on any problem")
    p.add_argument("--json", action="store_true",
                   help="print raw trace JSON instead of tables")
    p.set_defaults(func=_cmd_spans)

    p = sub.add_parser("report", help="full reproduction report (markdown)")
    p.add_argument("--fast", action="store_true",
                   help="reduced workload sizes")
    p.add_argument("--output", default=None, help="write to a file")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args) or 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
