"""Parallel sweep execution: fan simulation runs out across processes.

Each simulation run is sealed: it builds its own
:class:`~repro.des.Environment` and draws every variate from a
:class:`~repro.des.random_streams.StreamFactory` seeded by
``config.seed``.  Runs therefore commute — executing them in worker
processes, in any order, yields bit-identical :class:`SimResult` values
to the serial loop.  That identity is the correctness contract of this
module (and is pinned by tests/sim/test_parallel.py).

Workers are plain ``multiprocessing`` pool processes; the unit of work is
one whole run (seconds of CPU), so pickling one frozen ``SimConfig`` per
task is noise.  ``workers <= 1`` short-circuits to the serial loop with no
pool at all, which keeps single-core containers and nested-process-averse
environments on the exact code path they had before.

An optional :class:`~repro.sim.cache.ResultCache` short-circuits runs
whose ``(config, code-version)`` key already has a stored result.
:func:`run_many` is the one place that reads and writes it: load sweeps
and every probe of the sustainable-load search go through it.  The cache
is only consulted for plain runs — a ``storage_factory`` or ``trace``
changes the model in ways the key cannot see, so those runs always
execute (and are never stored).
"""

from __future__ import annotations

import multiprocessing
from pathlib import Path
from typing import Optional, Sequence

from .cache import ResultCache, config_key
from .model import SimResult, SwiftSimModel
from .workload import SimConfig

__all__ = ["run_many", "find_max_sustainable_many"]


def _pool_context():
    """Fork where available (cheap, inherits the imported package); spawn
    otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


def _run_config(config: SimConfig) -> SimResult:
    """Module-level worker body: one plain run (picklable by name)."""
    return SwiftSimModel(config).run()


def run_many(configs: Sequence[SimConfig],
             workers: int = 1,
             cache: Optional[ResultCache] = None) -> list[SimResult]:
    """Run every config, in input order, optionally in parallel and cached.

    Cached results are filled in first; only the misses are executed
    (serially for ``workers <= 1`` or a single miss, otherwise on a
    process pool).  Freshly computed results are stored back before
    returning.  Output order always matches ``configs``.
    """
    configs = list(configs)
    if cache is None:
        keys = []
        results: list[Optional[SimResult]] = [None] * len(configs)
    else:
        keys = [config_key(config) for config in configs]
        results = [cache.get(key) for key in keys]
    misses = [index for index, result in enumerate(results) if result is None]
    miss_configs = [configs[index] for index in misses]
    if workers <= 1 or len(misses) <= 1:
        computed = [_run_config(config) for config in miss_configs]
    else:
        with _pool_context().Pool(min(workers, len(misses))) as pool:
            computed = pool.map(_run_config, miss_configs)
    for index, result in zip(misses, computed):
        results[index] = result
        if cache is not None:
            cache.put(keys[index], result)
    return results  # type: ignore[return-value]


def _run_max_sustainable(task) -> SimResult:
    """Worker body for one full bisection (picklable by name).

    ``task`` is ``(base, rate_low, rate_high, iterations, cache_root)``;
    the worker reopens the cache by path — the directory *is* the cache
    — so entries it stores are shared, but its hit and miss counters
    stay in the worker process.
    """
    from .sweep import find_max_sustainable
    base, rate_low, rate_high, iterations, cache_root = task
    cache = ResultCache(cache_root) if cache_root is not None else None
    return find_max_sustainable(base, rate_low=rate_low,
                                rate_high=rate_high,
                                iterations=iterations, cache=cache)


def find_max_sustainable_many(bases: Sequence[SimConfig],
                              rate_low: float = 0.05,
                              rate_high: float = 400.0,
                              iterations: int = 10,
                              workers: int = 1,
                              cache: Optional[ResultCache] = None
                              ) -> list[SimResult]:
    """§5.2 maximum-sustainable-load search over many base configs.

    The bisection itself is inherently sequential (each probe rate depends
    on the previous verdict), so parallelism comes from fanning out the
    *independent* searches — one per figure-grid cell — across workers.
    Results keep the order of ``bases``.  Serial searches (``workers <=
    1`` or one base) use ``cache`` itself, so its ``hits``/``misses``
    count every probe; pool workers reopen it by path and keep their
    counts (see :func:`_run_max_sustainable`).
    """
    from .sweep import find_max_sustainable
    bases = list(bases)
    if workers <= 1 or len(bases) == 1:
        return [find_max_sustainable(base, rate_low=rate_low,
                                     rate_high=rate_high,
                                     iterations=iterations, cache=cache)
                for base in bases]
    cache_root: Optional[Path] = cache.root if cache is not None else None
    tasks = [(base, rate_low, rate_high, iterations, cache_root)
             for base in bases]
    with _pool_context().Pool(min(workers, len(tasks))) as pool:
        return pool.map(_run_max_sustainable, tasks)
