"""Deterministic job execution over an optional process pool.

Heavy solvers split work into an ordered list of self-describing jobs, and
``run_jobs`` is the one place that decides where a job's characteristic
cache lives and that counts the job's work.  In process, every job uses the
caller's cache.  In a pool, each worker receives the shared payload once,
via the pool initializer, together with a private cache that lives as long
as the pool.  Caches never change a value, so per-worker caches cannot
change a result; only the hit count does.

Each job is wrapped with the deltas of ``matching.solve_calls()`` and of its
cache's hits and misses, and the runner returns their sums next to the
results.  Partial results come back strictly in job order, so the final
numbers are identical whatever the worker count or scheduling -- the
single-worker run is the reference and the parallel runs reproduce it bit
for bit.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Sequence

from . import matching
from .model import CharacteristicCache

_PAYLOAD: Any = None
_CACHE: CharacteristicCache | None = None


def _init_worker(payload):
    global _PAYLOAD, _CACHE
    _PAYLOAD = payload
    _CACHE = CharacteristicCache()


def _counted(fn, payload, cache: CharacteristicCache, job):
    """``fn``'s result and the matchings, hits and misses it caused."""
    m0, h0, x0 = matching.solve_calls(), cache.hits, cache.misses
    out = fn(payload, cache, job)
    return out, (matching.solve_calls() - m0, cache.hits - h0, cache.misses - x0)


def _call(args):
    fn, job = args
    return _counted(fn, _PAYLOAD, _CACHE, job)


def default_workers() -> int:
    env = os.environ.get("SHAPALLOC_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return max(1, os.cpu_count() or 1)


def run_jobs(
    fn: Callable[[Any, CharacteristicCache, Any], Any],
    jobs: Sequence[Any],
    payload: Any,
    cache: CharacteristicCache,
    workers: int = 1,
) -> tuple[list[Any], dict]:
    """Run ``fn(payload, cache, job)`` for every job.

    Returns the results in job order and the jobs' summed work,
    ``{"matchings": m, "cache": {"hits": h, "misses": x}}``.
    """
    if workers <= 1 or len(jobs) <= 1:
        counted = [_counted(fn, payload, cache, job) for job in jobs]
    else:
        try:
            ctx = mp.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            ctx = mp.get_context()
        with ProcessPoolExecutor(
            max_workers=min(workers, len(jobs)),
            mp_context=ctx,
            initializer=_init_worker,
            initargs=(payload,),
        ) as pool:
            counted = list(pool.map(_call, [(fn, job) for job in jobs]))
    m, h, x = (sum(c[i] for _, c in counted) for i in range(3))
    work = {"matchings": m, "cache": {"hits": h, "misses": x}}
    return [out for out, _ in counted], work
