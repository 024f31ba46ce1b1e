"""Deterministic process-parallel experiments (``repro.parallel``).

Ambit's bank-level parallelism is charged in modelled time by the batch
scheduler (:mod:`repro.engine.scheduler`); every bulk batch runs in
process.  This package parallelises the *experiments* instead:

* :func:`~repro.parallel.pmap.parallel_map` +
  :func:`~repro.parallel.pmap.spawn_rngs` -- the deterministic
  experiment harness (Monte Carlo trials, figure sweeps);
* :func:`~repro.parallel.pmap.plan_mc_dispatch` -- how many processes
  a Monte Carlo run is worth;
* :func:`~repro.parallel.bench.run_parallel_bench` -- the wall-clock
  benchmark behind ``repro bench`` and ``BENCH_parallel.json``.
"""

from repro.parallel.pmap import default_jobs, parallel_map, spawn_rngs, spawn_seeds

__all__ = [
    "default_jobs",
    "parallel_map",
    "spawn_rngs",
    "spawn_seeds",
]
