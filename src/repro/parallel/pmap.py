"""Deterministic process-parallel experiment mapping.

:func:`parallel_map` is the harness behind the Monte Carlo trials, the
figure sweeps, and the ``repro bench`` CLI: it fans a list of picklable
work items across worker processes and returns results *in input
order*, so an experiment's output is a pure function of its inputs --
never of scheduling.

Determinism with randomness comes from :func:`spawn_rngs` /
:func:`spawn_seeds`: one root ``numpy.random.SeedSequence`` spawns an
independent child stream per work item, so the *same* per-item streams
are drawn whether the items run serially, across 2 processes, or across
64.  The rule for every parallel experiment in this repo: **chunk count
is part of the experiment configuration, job count is not** -- changing
``jobs`` may change wall-clock time but never a single result bit.

:func:`plan_mc_dispatch` decides how many processes a Monte Carlo run
is worth, from a small cost model (:class:`McCostModel`); it never
touches the chunk count.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, TypeVar

import numpy as np

from repro.errors import ConfigError

T = TypeVar("T")
R = TypeVar("R")


def default_jobs() -> int:
    """Worker processes to use by default: the schedulable CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def default_start_method() -> str:
    """``REPRO_MP_START`` override, else fork where available (fork
    skips the per-worker import cost)."""
    override = os.environ.get("REPRO_MP_START")
    if override:
        return override
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else methods[0]


def spawn_seeds(seed: int, n: int) -> List[np.random.SeedSequence]:
    """``n`` independent child seed sequences of one root seed.

    ``SeedSequence.spawn`` guarantees statistical independence between
    children and reproducibility of the whole family from ``seed``
    alone; children are cheap, picklable, and safe to send to workers.
    """
    if n < 0:
        raise ConfigError(f"cannot spawn {n} seed sequences")
    return list(np.random.SeedSequence(seed).spawn(n))


def spawn_rngs(seed: int, n: int) -> List[np.random.Generator]:
    """``n`` independent, reproducible generators from one root seed."""
    return [np.random.default_rng(ss) for ss in spawn_seeds(seed, n)]


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    jobs: Optional[int] = None,
    start_method: Optional[str] = None,
) -> List[R]:
    """Map ``fn`` over ``items`` across processes, preserving order.

    ``jobs=None`` uses :func:`default_jobs`; ``jobs<=1`` (or a single
    item) runs serially in-process, bit-identical to the parallel path
    provided ``fn`` draws randomness only from its item (see
    :func:`spawn_seeds`).  ``fn`` and every item must be picklable
    (module-level functions; no lambdas).
    """
    jobs = default_jobs() if jobs is None else jobs
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    context = multiprocessing.get_context(
        start_method or default_start_method()
    )
    with ProcessPoolExecutor(
        max_workers=min(jobs, len(items)), mp_context=context
    ) as executor:
        return list(executor.map(fn, items))


@dataclass(frozen=True)
class McCostModel:
    """Cost constants of the Monte Carlo fan-out, in seconds.

    The chunk count is *experiment configuration* (it fixes the RNG
    streams), so the decision may only pick the worker count, never the
    chunking.  The decision is therefore one-dimensional: is dividing
    the per-trial compute across ``jobs`` processes worth the pool
    spin-up plus per-chunk submit/collect overhead?
    """

    #: Per-trial compute of the vectorised variation deck.
    trial_s: float = 2.4e-7
    #: Per-chunk overhead: child-rng spawn, submit, pickle, collect.
    chunk_s: float = 5e-4
    #: One-time pool creation cost (fork/spawn + imports), paid by
    #: every parallel run because the MC path builds a fresh pool.
    pool_spinup_s: float = 0.35

    def describe(self) -> Dict[str, float]:
        """The constants as a plain dict (for bench payloads / docs)."""
        return {
            "trial_s": self.trial_s,
            "chunk_s": self.chunk_s,
            "pool_spinup_s": self.pool_spinup_s,
        }


#: Reference-host defaults for the Monte Carlo arm.
DEFAULT_MC_COST_MODEL = McCostModel()


@dataclass(frozen=True)
class McDispatchDecision:
    """Worker-count decision for one Monte Carlo run (for surfacing)."""

    trials: int
    chunks: int
    jobs_requested: int
    cores: int
    #: Worker count to actually run with (1 = stay in-process).
    jobs: int
    serial_est_s: float
    parallel_est_s: float
    #: True when fanning out is predicted to beat the in-process run.
    worthwhile: bool
    #: Why fanning out was declined ("" when it was not declined).
    reason: str


def plan_mc_dispatch(
    trials: int,
    chunks: int,
    jobs: int,
    cores: Optional[int] = None,
    model: Optional[McCostModel] = None,
) -> McDispatchDecision:
    """Pick the Monte Carlo worker count from the cost model.

    Chunk count is left untouched -- it is part of the experiment's
    identity (the failure count is a function of ``(chunks, seed)``) --
    so the only free variable is how many processes share the chunks.
    On a single schedulable core, or whenever the predicted parallel
    time (pool spin-up + chunk overhead + divided trial work) exceeds
    the in-process time, the decision is ``jobs=1`` with a stated
    reason; the bench records that reason as an explicit waiver instead
    of publishing a sub-1x "speedup" that is really a dispatch tax.
    """
    model = model if model is not None else DEFAULT_MC_COST_MODEL
    if cores is None:
        cores = default_jobs()
    effective = max(1, min(jobs, cores, chunks))
    work_s = trials * model.trial_s
    serial_est = work_s
    parallel_est = (
        model.pool_spinup_s + chunks * model.chunk_s + work_s / effective
    )
    worthwhile = effective >= 2 and parallel_est < serial_est
    if worthwhile:
        reason = ""
    elif min(jobs, cores) < 2:
        reason = (
            f"single-core host ({cores} schedulable core(s)); "
            f"fan-out cannot win"
        )
    else:
        reason = (
            f"dispatch-bound: predicted parallel {parallel_est:.3f}s "
            f">= serial {serial_est:.3f}s at {effective} worker(s) "
            f"(pool spin-up + {chunks} chunk submissions dominate "
            f"{trials:,} trials)"
        )
    return McDispatchDecision(
        trials=trials,
        chunks=chunks,
        jobs_requested=jobs,
        cores=cores,
        jobs=effective if worthwhile else 1,
        serial_est_s=serial_est,
        parallel_est_s=parallel_est,
        worthwhile=worthwhile,
        reason=reason,
    )
