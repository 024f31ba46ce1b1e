"""The Monte Carlo dispatch tuner: when fanning trials out pays.

:func:`~repro.parallel.pmap.plan_mc_dispatch` decides, from the trial
count, the chunk count, the requested jobs, the host's cores and the
constants of a :class:`~repro.parallel.pmap.McCostModel`, whether a
Monte Carlo run spreads its chunks over worker processes or stays in
this one.  The decision is a pure function of those inputs, and it may
only ever change the job count: the chunk count fixes the RNG streams,
so it is echoed untouched.
"""

from repro.parallel.pmap import McCostModel, plan_mc_dispatch


def test_mc_dispatch_declines_on_single_core():
    decision = plan_mc_dispatch(trials=8_000_000, chunks=32, jobs=8, cores=1)
    assert decision.jobs == 1
    assert not decision.worthwhile
    assert "single-core" in decision.reason


def test_mc_dispatch_declines_when_dispatch_bound():
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
    decision = plan_mc_dispatch(trials=8_000_000, chunks=32, jobs=8, cores=8)
    assert decision.worthwhile
    assert decision.jobs == 8
    assert decision.reason == ""
    assert decision.parallel_est_s < decision.serial_est_s


def test_mc_dispatch_caps_workers_by_cores_and_chunks():
    by_cores = plan_mc_dispatch(
        trials=80_000_000, chunks=32, jobs=16, cores=4
    )
    assert by_cores.jobs == 4
    by_chunks = plan_mc_dispatch(
        trials=80_000_000, chunks=2, jobs=16, cores=16
    )
    assert by_chunks.jobs == 2


def test_mc_dispatch_never_touches_chunks():
    # The chunk count fixes the RNG streams (= the failure count); the
    # decision must echo it untouched whatever it decides about jobs.
    for trials in (1_000, 8_000_000):
        decision = plan_mc_dispatch(trials=trials, chunks=32, jobs=8, cores=8)
        assert decision.chunks == 32
