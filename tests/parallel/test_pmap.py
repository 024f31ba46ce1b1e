"""The parallel experiment harness is deterministic and order-preserving.

The rule every test here pins down: **chunk/shard count is experiment
configuration, job count is not** -- the same root seed and the same
chunking produce bit-identical results whether the work runs serially,
in this process, or across any number of workers.
"""

import numpy as np
import pytest

from repro.circuit.montecarlo import (
    table2_experiment,
    tra_failure_rate_parallel,
)
from repro.errors import ConfigError
from repro.parallel.pmap import (
    default_jobs,
    parallel_map,
    spawn_rngs,
    spawn_seeds,
)
from repro.workloads.generators import packed_vector_shard, spawn_shard_rngs


def _square(x):
    return x * x


def test_parallel_map_preserves_order():
    items = list(range(20))
    assert parallel_map(_square, items, jobs=3) == [x * x for x in items]


def test_parallel_map_serial_path_matches():
    items = list(range(7))
    assert parallel_map(_square, items, jobs=1) == parallel_map(
        _square, items, jobs=4
    )


def test_default_jobs_positive():
    assert default_jobs() >= 1


def test_spawn_seeds_validates():
    with pytest.raises(ConfigError):
        spawn_seeds(1, -1)


def test_spawn_rngs_reproducible_and_independent():
    a = [rng.integers(0, 2**63, size=8) for rng in spawn_rngs(11, 4)]
    b = [rng.integers(0, 2**63, size=8) for rng in spawn_rngs(11, 4)]
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    # Different children draw different streams.
    assert not np.array_equal(a[0], a[1])
    # spawn_shard_rngs is the same family, exposed at the workload layer.
    c = [rng.integers(0, 2**63, size=8) for rng in spawn_shard_rngs(11, 4)]
    for x, y in zip(a, c):
        assert np.array_equal(x, y)


def test_packed_vector_shards_identical_across_job_counts():
    seeds = spawn_seeds(21, 6)
    items = [(i, 256, ss, 0.4) for i, ss in enumerate(seeds)]
    serial = np.concatenate(parallel_map(packed_vector_shard, items, jobs=1))
    fanned = np.concatenate(parallel_map(packed_vector_shard, items, jobs=3))
    assert np.array_equal(serial, fanned)


def test_montecarlo_parallel_is_job_count_invariant():
    kwargs = dict(trials=6_000, chunks=5, seed=13)
    serial = tra_failure_rate_parallel(0.15, jobs=1, **kwargs)
    fanned = tra_failure_rate_parallel(0.15, jobs=3, **kwargs)
    assert serial.failures == fanned.failures
    assert serial.trials == fanned.trials == 6_000


def test_montecarlo_failure_count_is_pinned():
    # BENCH_parallel.json's Monte Carlo arm: the seeded deck's failure
    # count depends on the model, the seed and the chunking only.
    result = tra_failure_rate_parallel(
        0.15, jobs=1, trials=8_000_000, chunks=32, seed=42
    )
    assert result.failures == 412_816


def test_montecarlo_chunks_are_configuration():
    # Changing chunks is allowed to change the drawn streams...
    a = tra_failure_rate_parallel(0.2, trials=6_000, chunks=4, seed=13)
    b = tra_failure_rate_parallel(0.2, trials=6_000, chunks=8, seed=13)
    # ...but both are valid decks of the same experiment.
    assert abs(a.failure_rate - b.failure_rate) < 0.05
    with pytest.raises(ConfigError):
        tra_failure_rate_parallel(0.2, trials=6_000, chunks=0)
    with pytest.raises(ConfigError):
        tra_failure_rate_parallel(0.2, trials=0)


def test_table2_jobs_bit_identical_to_serial():
    serial = table2_experiment(trials=1_500)
    fanned = table2_experiment(trials=1_500, jobs=3)
    assert {k: v.failures for k, v in serial.items()} == {
        k: v.failures for k, v in fanned.items()
    }

