"""Tests of the benchmark harness itself (not part of the tier-1 suite).

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time

import pytest

import layers
import reference
import run
from workloads import WORKLOADS

DEFINITION = run.load_definition()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_emits_every_metric(name):
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        result = run.run_workload(name, seed=3, seconds=0.6, trace=trace,
                                  definition=DEFINITION, setups=1)
        assert result["correct"], result["detail"]["problems"]
        assert result["failed"] == 0 and result["attempted"] >= 1
        names = {m["name"] for m in DEFINITION[kind]}
        assert set(result["metrics"]) == names
        values = {k: v["value"] for k, v in result["metrics"].items()}
        if not trace:
            assert all(v > 0 for v in values.values()), values
            continue
        assert all(v >= 0 for k, v in values.items()
                   if k.endswith((".self_us", ".calls", ".share"))), values
        unattributed = values["unattributed.share"]
        assert 0 <= unattributed <= 1, values
        # unattributed.share has its own clock (the union of wrapped
        # time over threads), so this checks the self-time arithmetic:
        # on one thread the layers tile the covered time exactly; on
        # two, overlapping layers can only add.
        layer_shares = sum(v for k, v in values.items()
                           if k.endswith(".share") and k != "unattributed.share")
        if name.startswith("lib-"):
            assert layer_shares + unattributed == pytest.approx(1.0, abs=0.01)
        else:
            assert layer_shares + unattributed >= 0.99, values


@pytest.mark.parametrize("name", ["serve-small", "lib-arith"])
def test_corrupted_model_fails_the_run(name):
    result = run.run_workload(name, seed=3, seconds=0.3, trace=False,
                              definition=DEFINITION, setups=1, corrupt=True)
    assert not result["correct"]
    assert "differ from the model" in result["detail"]["problems"][0]


def test_without_program_source_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lib-arith",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_excludes_nested_wrapped_calls():
    recorder = layers.Recorder()

    def inner():
        time.sleep(0.02)

    wrapped_inner = recorder.wrap("core.device", inner)

    def outer():
        time.sleep(0.01)
        wrapped_inner()

    recorder.wrap("apps.bitvector", outer)()
    totals = recorder.totals()
    outer_self, outer_calls, outer_total = totals["apps.bitvector"]
    inner_self = totals["core.device"][0]
    assert outer_calls == 1 and totals["core.device"][1] == 1
    assert 0.009e9 < outer_self < 0.019e9
    assert inner_self >= 0.02e9
    assert outer_total == pytest.approx(outer_self + inner_self, rel=1e-6)


def test_covered_time_is_the_union_over_threads():
    recorder = layers.Recorder()
    nap = recorder.wrap("core.device", lambda: time.sleep(0.05))
    threads = [threading.Thread(target=nap) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=5)
        assert not thread.is_alive()
    totals = recorder.totals()
    assert totals["core.device"][0] >= 0.1e9
    assert 0.05e9 <= totals["covered"][0] < 0.09e9


def test_scaled_timings_do_not_depend_on_host_speed():
    def phase(slowdown):
        # Two segments; on a slower host the work and the kernel both
        # take longer by the same factor.
        return {"segments": [
            {"duration": 1.0 * slowdown, "latencies": [0.01 * slowdown] * 100,
             "ref": reference.NOMINAL_S * slowdown},
            {"duration": 2.0 * slowdown, "latencies": [0.04 * slowdown] * 50,
             "ref": 2 * reference.NOMINAL_S * slowdown},
        ]}

    fast, slow = run.timings(phase(1.0), True), run.timings(phase(1.5), True)
    assert fast == pytest.approx(slow)
    # 150 requests in 1 s + 2 s / 2 of reference time
    assert fast["ops_per_s"] == pytest.approx(75.0)
    assert fast["p50_ms"] == pytest.approx(10.0)
    assert fast["p90_ms"] == pytest.approx(20.0)
    assert run.timings(phase(1.5), False)["ops_per_s"] == pytest.approx(
        150 / 4.5)


def test_inactive_recorder_records_nothing():
    recorder = layers.Recorder()
    recorder.active = False
    recorder.wrap("core.device", lambda: None)()
    assert recorder.totals()["core.device"] == [0, 0, 0]


@pytest.mark.parametrize("old, new, expected", [
    # ten pairs, all won, medians apart by more than the old IQR
    ([100 + i % 3 for i in range(10)], [120 + i % 3 for i in range(10)],
     "improved"),
    ([100 + i % 3 for i in range(10)], [101 + i % 3 for i in range(10)],
     "unchanged"),
    ([100 + i % 3 for i in range(10)], [80 + i % 3 for i in range(10)],
     "regressed"),
    # the old runs spread wider than the bound: no verdict either way
    ([60, 140, 80, 120, 100, 70, 130, 90, 110, 100],
     [95, 105, 90, 110, 100, 85, 115, 100, 95, 105], "unresolved"),
    # fewer than ten pairs cannot claim a gain
    ([100, 101, 102], [120, 121, 122], "unchanged"),
])
def test_verdict(old, new, expected):
    assert run.verdict(old, new, "higher", 0.10) == expected


def _results_file(path, failed, seconds=20.0, seed=7, modelled=20584.0):
    runs = []
    for value in (100.0, 101.0, 102.0):
        metrics = {m["name"]: {"value": value, "unit": m["unit"]}
                   for m in DEFINITION["end_to_end"]}
        runs.append({"correct": True, "attempted": 1000, "failed": failed,
                     "metrics": metrics,
                     "detail": {"trace": False, "workload": "lib-arith",
                                "seed": seed,
                                "modelled_ns_per_req": modelled}})
    path.write_text(json.dumps({"seconds": seconds, "runs": runs}))
    return path


def test_compare_flags_rising_errors(tmp_path, capsys):
    old = _results_file(tmp_path / "old.json", failed=0)
    same = _results_file(tmp_path / "same.json", failed=0)
    worse = _results_file(tmp_path / "worse.json", failed=3)
    assert run.compare(old, same, DEFINITION) == 0
    assert run.compare(old, worse, DEFINITION) == 1
    assert "ERRORS ROSE" in capsys.readouterr().out


def test_compare_flags_a_changed_model(tmp_path, capsys):
    old = _results_file(tmp_path / "old.json", failed=0)
    same = _results_file(tmp_path / "same.json", failed=0)
    moved = _results_file(tmp_path / "moved.json", failed=0, modelled=20000.0)
    run.compare(old, same, DEFINITION)
    assert "MODEL CHANGED" not in capsys.readouterr().out
    run.compare(old, moved, DEFINITION)
    assert "MODEL CHANGED" in capsys.readouterr().out


@pytest.mark.parametrize("change", [{"seconds": 10.0}, {"seed": 8}])
def test_compare_refuses_runs_made_differently(tmp_path, change):
    old = _results_file(tmp_path / "old.json", failed=0)
    new = _results_file(tmp_path / "new.json", failed=0, **change)
    with pytest.raises(run.BenchError):
        run.compare(old, new, DEFINITION)
