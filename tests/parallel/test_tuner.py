"""The dispatch auto-tuner: golden decisions, pure tables, bit-exact tiers.

Two layers of guarantee:

* **Decision layer** -- :meth:`AutoTuner.choose` is a pure function of
  the request shape and the cost-model constants, so its behaviour is
  pinned by a golden decision table over hand-checked shapes (the
  crossover points the model exists to get right), plus properties:
  the choice always argmins the model's own estimates, ineligible
  shapes never pick the sharded tier, and ``decision_table`` never
  leaks into the decision counters.

* **Execution layer** -- whatever the tuner decides only moves
  wall-clock, never results: ``dispatch="auto"`` must leave cells,
  counters, clock, trace, and plan-cache statistics bit-identical to
  every *forced* tier and to the single-process engine, for all nine
  bulk operations (parametrized) and under hypothesis-random spreads.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.device import AmbitDevice
from repro.core.microprograms import BulkOp
from repro.errors import ConfigError
from repro.parallel import AutoTuner, DispatchTier, ShardedDevice
from repro.parallel.tuner import _TIER_ORDER

from .test_sharded_device import (
    GEO,
    UNEVEN_SPREAD,
    _assert_same_state,
    _fill,
    _spread_rows,
)

ALL_OPS = tuple(BulkOp)
DISPATCH_MODES = ("serial", "fused", "sharded", "auto")

#: The golden decision table: (rows, row_bytes, shards, jobs) -> tier,
#: hand-checked against the default cost model's crossover points.
GOLDEN_DECISIONS = (
    # Empty batch: nothing to amortize setup over.
    ((0, 64, 1, 8), "serial"),
    # Tiny batches: one fused planning pass beats per-row dispatch.
    ((1, 64, 1, 1), "fused"),
    ((8, 64, 4, 8), "fused"),
    # Mid-size, small rows: byte work too small to pay dispatch cost.
    ((4, 8192, 4, 8), "fused"),
    # Row-count heavy, byte-light: per-row planning dominates and is
    # not divided by sharding, so fan-out can never win.
    ((256, 64, 8, 8), "fused"),
    # Byte-heavy batches: divided kernel work dwarfs dispatch cost.
    ((64, 131072, 8, 8), "sharded"),
    ((64, 131072, 2, 2), "sharded"),
    ((16, 131072, 4, 4), "sharded"),
    # Same heavy shape but sharding ineligible: single worker / bank.
    ((64, 131072, 8, 1), "fused"),
    ((64, 131072, 1, 8), "fused"),
)


# ----------------------------------------------------------------------
# Decision layer
# ----------------------------------------------------------------------
def test_golden_decision_table():
    tuner = AutoTuner()
    shapes = [shape for shape, _ in GOLDEN_DECISIONS]
    table = tuner.decision_table(shapes)
    got = [row["tier"] for row in table]
    want = [tier for _, tier in GOLDEN_DECISIONS]
    assert got == want, list(zip(shapes, got, want))


def test_decision_table_is_pure():
    tuner = AutoTuner()
    tuner.choose(rows=64, row_bytes=131072, shards=8, jobs=8)
    before = dict(tuner.decisions)
    last = tuner.last_decision
    tuner.decision_table([s for s, _ in GOLDEN_DECISIONS])
    assert tuner.decisions == before
    assert tuner.last_decision is last


def test_choose_records_decisions_and_estimates():
    tuner = AutoTuner()
    tier = tuner.choose(rows=64, row_bytes=131072, shards=8, jobs=8)
    assert tier is DispatchTier.SHARDED
    assert tuner.decisions["sharded"] == 1
    decision = tuner.last_decision
    assert decision.rows == 64 and decision.shards == 8
    assert set(decision.estimates_s) == {"serial", "fused", "sharded"}
    # The recorded estimates really are what the choice minimised.
    assert decision.estimates_s["sharded"] == min(
        decision.estimates_s.values()
    )


@given(
    rows=st.integers(0, 4096),
    row_bytes=st.sampled_from((64, 1024, 8192, 65536, 131072)),
    shards=st.integers(1, 16),
    jobs=st.integers(1, 16),
)
@settings(max_examples=200, deadline=None)
def test_choice_is_argmin_of_own_estimates(rows, row_bytes, shards, jobs):
    tuner = AutoTuner()
    tier = tuner.choose(rows=rows, row_bytes=row_bytes, shards=shards, jobs=jobs)
    eligible = list(_TIER_ORDER)
    if shards < 2 or jobs < 2:
        eligible.remove(DispatchTier.SHARDED)
        assert tier is not DispatchTier.SHARDED
    best = min(
        tuner.estimate(t, rows, row_bytes, shards, jobs) for t in eligible
    )
    assert tuner.estimate(tier, rows, row_bytes, shards, jobs) == best


def test_invalid_dispatch_mode_rejected():
    with pytest.raises(ConfigError, match="dispatch"):
        ShardedDevice(geometry=GEO, max_workers=2, dispatch="fastest")


# ----------------------------------------------------------------------
# Execution layer: the tier choice never changes results
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "op, max_plans",
    [pytest.param(op, None, id=op.value) for op in ALL_OPS]
    + [pytest.param(op, 1, id=f"{op.value}-max_plans=1") for op in ALL_OPS],
)
def test_auto_bit_exact_with_every_forced_tier(op, max_plans):
    # ``max_plans=1`` stands in for the serve layer's bounded cache,
    # where nearly every plan is evicted before its next use.
    serial = AmbitDevice(geometry=GEO)
    serial.controller.plan_cache.max_plans = max_plans
    _fill(serial, seed=31)
    dst, src1, src2, src3 = _spread_rows(UNEVEN_SPREAD, op.arity)
    serial.engine.run_rows(op, dst, src1, src2, src3)
    if max_plans is not None:
        assert serial.controller.plan_cache.evictions > 0

    for mode in DISPATCH_MODES:
        with ShardedDevice(
            geometry=GEO, max_workers=3, dispatch=mode
        ) as device:
            device.controller.plan_cache.max_plans = max_plans
            _fill(device, seed=31)
            device.run_rows(op, dst, src1, src2, src3)
            _assert_same_state(serial, device)
            counter = device.metrics.get("ambit_dispatch_total")
            executed = {
                labels[0]
                for labels, child in counter.children.items()
                if child.value
            }
            if mode != "auto":
                assert executed == {mode}


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    op=st.sampled_from(ALL_OPS),
    seed=st.integers(0, 2**31),
    counts=st.lists(st.integers(0, 4), min_size=4, max_size=4),
    data=st.data(),
)
def test_random_spreads_all_modes_agree(op, seed, counts, data):
    spread = {}
    for bank, count in enumerate(counts):
        if count:
            sub = data.draw(st.integers(0, GEO.subarrays_per_bank - 1))
            spread[(bank, sub)] = count
    dst, src1, src2, src3 = _spread_rows(spread, op.arity)

    serial = AmbitDevice(geometry=GEO)
    _fill(serial, seed)
    serial.engine.run_rows(op, dst, src1, src2, src3)

    for mode in DISPATCH_MODES:
        with ShardedDevice(
            geometry=GEO, max_workers=3, dispatch=mode
        ) as device:
            _fill(device, seed)
            device.run_rows(op, dst, src1, src2, src3)
            _assert_same_state(serial, device)


def test_forced_tiers_execute_where_they_claim():
    dst, src1, src2, _ = _spread_rows(UNEVEN_SPREAD, 2)
    # serial / fused never touch the pool.
    for mode in ("serial", "fused"):
        with ShardedDevice(
            geometry=GEO, max_workers=3, dispatch=mode
        ) as device:
            _fill(device, seed=3)
            device.run_rows(BulkOp.AND, dst, src1, src2)
            assert device.pool is None
    # sharded does.
    with ShardedDevice(
        geometry=GEO, max_workers=3, dispatch="sharded"
    ) as device:
        _fill(device, seed=3)
        report = device.run_rows(BulkOp.AND, dst, src1, src2)
        assert report.shards == 3
        assert device.pool is not None


def test_auto_mode_consults_the_device_tuner():
    tuner = AutoTuner()
    with ShardedDevice(
        geometry=GEO, max_workers=3, dispatch="auto", tuner=tuner
    ) as device:
        _fill(device, seed=9)
        dst, src1, src2, _ = _spread_rows(UNEVEN_SPREAD, 2)
        device.run_rows(BulkOp.AND, dst, src1, src2)
        assert sum(tuner.decisions.values()) == 1
        decision = tuner.last_decision
        assert decision.rows == len(dst)
        assert decision.row_bytes == device.row_bytes
        # The executed tier is the decided tier.
        counter = device.metrics.get("ambit_dispatch_total")
        executed = {
            labels[0]
            for labels, child in counter.children.items()
            if child.value
        }
        assert executed == {decision.tier.value}


def test_calibrate_rebuilds_the_model_from_probes():
    tuner = AutoTuner()
    shipped = tuner.model
    with ShardedDevice(
        geometry=GEO, max_workers=2, dispatch="sharded", tuner=tuner
    ) as device:
        model = tuner.calibrate(device, rows=8, repeats=1)
    assert model is tuner.model
    assert model is not shipped
    for name, value in model.describe().items():
        assert value > 0, name
    # Statistics were reset after the probe batches.
    assert device.elapsed_ns == 0.0


# ----------------------------------------------------------------------
# Monte Carlo fan-out decisions
# ----------------------------------------------------------------------
def test_mc_dispatch_declines_on_single_core():
    from repro.parallel.tuner import plan_mc_dispatch

    decision = plan_mc_dispatch(trials=8_000_000, chunks=32, jobs=8, cores=1)
    assert decision.jobs == 1
    assert not decision.worthwhile
    assert "single-core" in decision.reason


def test_mc_dispatch_declines_when_dispatch_bound():
    from repro.parallel.tuner import McCostModel, plan_mc_dispatch

    # Tiny trial count: pool spin-up dwarfs the divided work.
    decision = plan_mc_dispatch(trials=1_000, chunks=32, jobs=8, cores=8)
    assert decision.jobs == 1
    assert not decision.worthwhile
    assert "dispatch-bound" in decision.reason
    # ...and the decision is a pure function of the model constants: a
    # free pool flips it.
    free = McCostModel(trial_s=2.4e-7, chunk_s=0.0, pool_spinup_s=0.0)
    flipped = plan_mc_dispatch(
        trials=1_000, chunks=32, jobs=8, cores=8, model=free
    )
    assert flipped.worthwhile and flipped.jobs == 8


def test_mc_dispatch_fans_out_when_work_dominates():
    from repro.parallel.tuner import plan_mc_dispatch

    decision = plan_mc_dispatch(trials=8_000_000, chunks=32, jobs=8, cores=8)
    assert decision.worthwhile
    assert decision.jobs == 8
    assert decision.reason == ""
    assert decision.parallel_est_s < decision.serial_est_s


def test_mc_dispatch_caps_workers_by_cores_and_chunks():
    from repro.parallel.tuner import plan_mc_dispatch

    by_cores = plan_mc_dispatch(
        trials=80_000_000, chunks=32, jobs=16, cores=4
    )
    assert by_cores.jobs == 4
    by_chunks = plan_mc_dispatch(
        trials=80_000_000, chunks=2, jobs=16, cores=16
    )
    assert by_chunks.jobs == 2


def test_mc_dispatch_never_touches_chunks():
    from repro.parallel.tuner import plan_mc_dispatch

    # The chunk count fixes the RNG streams (= the failure count); the
    # decision must echo it untouched whatever it decides about jobs.
    for trials in (1_000, 8_000_000):
        decision = plan_mc_dispatch(trials=trials, chunks=32, jobs=8, cores=8)
        assert decision.chunks == 32
