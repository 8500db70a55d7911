"""Deterministic job execution over an optional process pool.

Heavy solvers split work into an ordered list of self-describing jobs, and
``run_jobs`` runs ``fn(payload, job)`` for each of them, in process or in a
pool.  In a pool, each worker receives the shared payload once, via the pool
initializer, and keeps it as long as the pool lives.  No solver keeps a
memo in the payload: each job runs the same matchings whichever worker
runs it, so the work counted below is the same at any worker count.

Each job is wrapped by ``counted``, which takes the deltas of
``matching.solve_calls()`` (greedy matchings) and of
``matching.search_calls()`` (augmenting searches), and the runner
returns their sums next to the results.  A solver's single in-process step
calls ``counted`` directly.  Partial results come back strictly in job
order, so the final numbers are identical whatever the worker count or
scheduling -- the single-worker run is the reference and the parallel runs
reproduce it bit for bit.  ``multiprocessing`` and ``concurrent.futures``
are imported only when a pool starts.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Sequence

from . import matching

_PAYLOAD: Any = None


def _init_worker(payload):
    global _PAYLOAD
    _PAYLOAD = payload


def counted(fn: Callable[..., Any], *args: Any) -> tuple[Any, dict]:
    """``fn(*args)`` and the work it ran, ``{"matchings": m, "searches": s}``."""
    m0, s0 = matching.solve_calls(), matching.search_calls()
    out = fn(*args)
    return out, {"matchings": matching.solve_calls() - m0,
                 "searches": matching.search_calls() - s0}


def _call(args):
    fn, job = args
    return counted(fn, _PAYLOAD, job)


def default_workers() -> int:
    """``SHAPALLOC_THREADS`` if set (a positive integer), else the CPU count."""
    env = os.environ.get("SHAPALLOC_THREADS")
    if not env:
        return max(1, os.cpu_count() or 1)
    if not env.isdecimal() or int(env) < 1:
        raise ValueError(f"SHAPALLOC_THREADS must be a positive integer, got {env!r}")
    return int(env)


def run_jobs(
    fn: Callable[[Any, Any], Any],
    jobs: Sequence[Any],
    payload: Any,
    workers: int = 1,
) -> tuple[list[Any], dict]:
    """Run ``fn(payload, job)`` for every job.

    Returns the results in job order and the jobs' summed work,
    ``{"matchings": m, "searches": s}``.
    """
    if workers <= 1 or len(jobs) <= 1:
        done = [counted(fn, payload, job) for job in jobs]
    else:
        # imported here: a run in process should not pay for loading them
        import multiprocessing as mp
        from concurrent.futures import ProcessPoolExecutor

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
            done = list(pool.map(_call, [(fn, job) for job in jobs]))
    work = {key: sum(w[key] for _, w in done) for key in ("matchings", "searches")}
    return [out for out, _ in done], work
