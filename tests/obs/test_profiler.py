"""Profiler + profile-workload + CLI tests."""

import dataclasses
import json

import pytest

from repro.core.device import AmbitDevice
from repro.core.microprograms import BulkOp
from repro.dram.chip import RowLocation
from repro.errors import ConfigError
from repro.obs import RingBufferSink, Tracer
from repro.perf.profiling import (
    LOGIC_OPS,
    WORKLOADS,
    profile_geometry,
    run_profile_workload,
)

DST = RowLocation(0, 0, 3)
SRC1 = RowLocation(0, 0, 0)
SRC2 = RowLocation(0, 0, 1)


def _and_then_xor(device):
    device.bbop_row(BulkOp.AND, DST, SRC1, SRC2)
    device.bbop_row(BulkOp.XOR, DST, SRC1, SRC2)


def _report(prof):
    return (
        prof.counters.as_dict(),
        {name: dataclasses.asdict(stats) for name, stats in prof.per_op.items()},
    )


class TestProfileContextManager:
    def test_profile_attaches_no_tracer(self, device):
        assert device.tracer is None
        with device.profile() as prof:
            assert device.tracer is None
            device.bbop_row(BulkOp.AND, DST, SRC1, SRC2)
        assert device.tracer is None
        assert prof.counters.aaps == 4
        assert prof.per_op["and"].count == 1

    def test_report_does_not_depend_on_the_attached_tracer(self, tiny_geo):
        # A tracer's energy model defaults to 8 KiB rows; the report is
        # priced at the device's row size whichever tracer is attached.
        reports = []
        for attach in (
            lambda device: None,
            lambda device: device.attach_tracer(),
            lambda device: device.attach_tracer(
                Tracer(sinks=[RingBufferSink()])
            ),
        ):
            device = AmbitDevice(geometry=tiny_geo)
            attach(device)
            with device.profile() as prof:
                _and_then_xor(device)
            reports.append(_report(prof))
        assert reports[0] == reports[1] == reports[2]
        assert reports[0][0]["energy_pj"] == pytest.approx(559.2, abs=0.05)

    def test_reset_stats_inside_the_region_loses_no_work(self, device):
        with device.profile() as prof:
            device.bbop_row(BulkOp.AND, DST, SRC1, SRC2)
            device.reset_stats()
            device.bbop_row(BulkOp.XOR, DST, SRC1, SRC2)
        c = prof.counters
        assert c.ops == {"and": 1, "xor": 1}
        assert (c.aaps, c.aps, c.activates) == (9, 2, 20)
        assert c.energy_pj == pytest.approx(559.2, abs=0.05)
        assert set(prof.per_op) == {"and", "xor"}
        # Plan-cache lookups made before the reset count too.
        assert (c.plan_cache_hits, c.plan_cache_misses) == (0, 2)
        assert prof.plan_cache_by_op == {"and": (0, 1), "xor": (0, 1)}
        # The statistics themselves restart at the reset.
        assert device.controller.stats.aap_count == 5
        assert len(device.chip.trace) == 19
        cache = device.controller.plan_cache
        assert (cache.hits, cache.misses) == (0, 1)
        assert cache.misses_by_op == {"xor": 1}

    def test_piggybacks_on_existing_tracer(self, device):
        ring = RingBufferSink()
        tracer = device.attach_tracer(
            Tracer(sinks=[ring], timing=device.timing, row_bytes=device.row_bytes)
        )
        try:
            with device.profile() as prof:
                device.bbop_row(BulkOp.NOT, DST, SRC1)
            # profiling must not tear down the user's tracer or sinks
            assert device.tracer is tracer
            assert tracer.sinks == [ring]
            assert prof.per_op["not"].count == 1
        finally:
            device.detach_tracer()

    def test_region_is_a_delta(self, device):
        device.bbop_row(BulkOp.AND, DST, SRC1, SRC2)  # outside the region
        with device.profile() as prof:
            device.bbop_row(BulkOp.XOR, DST, SRC1, SRC2)
        assert set(prof.per_op) == {"xor"}
        assert prof.counters.ops == {"xor": 1}

    def test_per_op_structure_matches_microprograms(self, device):
        with device.profile() as prof:
            device.bbop_row(BulkOp.AND, DST, SRC1, SRC2)
            device.bbop_row(BulkOp.AND, DST, SRC1, SRC2)
            device.bbop_row(BulkOp.XOR, DST, SRC1, SRC2)
        and_stats = prof.per_op["and"]
        assert (and_stats.count, and_stats.aaps, and_stats.aps) == (2, 8, 0)
        xor_stats = prof.per_op["xor"]
        assert (xor_stats.count, xor_stats.aaps, xor_stats.aps) == (1, 5, 2)
        for op, stats in prof.per_op.items():
            expected = device.controller.op_latency_ns(BulkOp(op)) * stats.count
            assert stats.busy_ns == pytest.approx(expected)

    def test_busy_matches_controller_accounting(self, device):
        before = device.controller.stats.busy_ns
        with device.profile() as prof:
            device.bbop_row(BulkOp.NAND, DST, SRC1, SRC2)
            device.bbop_row(BulkOp.OR, DST, SRC1, SRC2)
        delta = device.controller.stats.busy_ns - before
        assert prof.counters.busy_ns == pytest.approx(delta)

    def test_psm_copy_profiled(self, device):
        with device.profile() as prof:
            device.psm_copy(RowLocation(0, 0, 0), RowLocation(1, 0, 0))
        assert prof.counters.rowclone_psm == 1
        assert prof.per_op["psm_copy"].count == 1

    def test_format_table_renders(self, device):
        with device.profile() as prof:
            device.bbop_row(BulkOp.AND, DST, SRC1, SRC2)
        table = prof.format_table()
        assert "and" in table
        assert "busy ns" in table
        assert "AAP / AP" in table  # counter footer

    def test_empty_region_renders(self, device):
        with device.profile() as prof:
            pass
        assert "(no bulk operations executed)" in prof.format_table()
        assert prof.rows() == []


class TestProfileWorkloads:
    def test_all_workload_covers_seven_logic_ops(self):
        report = run_profile_workload("all", repeats=1)
        for op in LOGIC_OPS:
            assert report.per_op[op.value].count == 1
        assert report.counters.tras > 0

    def test_single_op_workload(self):
        report = run_profile_workload("xor", repeats=3)
        assert set(report.per_op) == {"xor"}
        assert report.per_op["xor"].count == 3
        assert report.per_op["xor"].aaps == 15

    def test_copy_workload_counts_rowclone(self):
        report = run_profile_workload("copy", repeats=2)
        assert report.counters.rowclone_fpm == 2

    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigError):
            run_profile_workload("frobnicate")

    def test_bad_repeats_rejected(self):
        with pytest.raises(ConfigError):
            run_profile_workload("and", repeats=0)

    def test_workload_registry_names(self):
        assert "all" in WORKLOADS and "maj" in WORKLOADS
        geo = profile_geometry(row_bytes=128)
        assert geo.subarray.row_bytes == 128

    def test_tracer_detached_after_workload(self):
        # run_profile_workload builds its own device, but must not leak
        # sinks into ours: exercised via the sinks parameter round trip.
        ring = RingBufferSink()
        run_profile_workload("not", repeats=1, sinks=(ring,))
        assert len(ring.commands()) > 0
        assert len(ring.of_kind("op")) == 1


class TestProfileCli:
    def test_profile_subcommand_emits_chrome_trace(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = tmp_path / "trace.json"
        jsonl_path = tmp_path / "trace.jsonl"
        rc = main(
            [
                "profile",
                "all",
                "--repeats",
                "1",
                "--row-bytes",
                "128",
                "--chrome-trace",
                str(trace_path),
                "--jsonl",
                str(jsonl_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "xor" in out and "busy ns" in out

        document = json.loads(trace_path.read_text())
        assert isinstance(document["traceEvents"], list)
        cats = {e.get("cat") for e in document["traceEvents"] if e["ph"] == "X"}
        assert cats == {"cmd", "primitive", "op"}

        for line in jsonl_path.read_text().splitlines():
            json.loads(line)

    def test_profile_subcommand_default_workload(self, capsys):
        from repro.cli import main

        assert main(["profile", "--repeats", "1", "--row-bytes", "64"]) == 0
        assert "and" in capsys.readouterr().out

    def test_profile_subcommand_unknown_workload(self):
        from repro.cli import main

        with pytest.raises(ConfigError):
            main(["profile", "nonsense"])
