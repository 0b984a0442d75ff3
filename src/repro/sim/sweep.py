"""Parameter sweeps: load curves and the maximum sustainable data-rate.

Figures 3 and 4 plot mean time-to-complete against the request arrival
rate; Figures 5 and 6 plot, per disk count and disk model, "the data-rate
observed by the client when the average time to complete a request is the
same as the average time between requests" (§5.2) — found here by bisection
on the arrival rate.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from .model import SimResult, SwiftSimModel
from .parallel import run_many
from .workload import SimConfig

__all__ = ["run_once", "load_sweep", "find_max_sustainable"]


def run_once(config: SimConfig, storage_factory=None,
             trace=None) -> SimResult:
    """One simulation run (custom agent storage / trace replay optional)."""
    return SwiftSimModel(config, storage_factory=storage_factory,
                         trace=trace).run()


def load_sweep(base: SimConfig,
               arrival_rates: Sequence[float],
               storage_factory=None,
               workers: int = 1,
               cache=None) -> list[SimResult]:
    """Mean completion time across a grid of arrival rates.

    Plain runs go through :func:`~repro.sim.parallel.run_many`:
    ``workers > 1`` fans the (independent, deterministic) runs out over
    a process pool, and ``cache`` (a
    :class:`~repro.sim.cache.ResultCache`) short-circuits runs already
    on disk.  A ``storage_factory`` is not part of the cache key and
    cannot be pickled reliably, so its presence forces a serial,
    uncached loop.  Results are bit-identical across all paths.
    """
    configs = [dataclasses.replace(base, arrival_rate=rate)
               for rate in arrival_rates]
    if storage_factory is None:
        return run_many(configs, workers=workers, cache=cache)
    return [run_once(config, storage_factory=storage_factory)
            for config in configs]


def find_max_sustainable(base: SimConfig,
                         rate_low: float = 0.05,
                         rate_high: float = 400.0,
                         iterations: int = 10,
                         storage_factory=None,
                         cache=None) -> SimResult:
    """Bisect for the §5.2 maximum-sustainable-load point.

    Returns the result at the highest arrival rate found whose mean
    completion time does not exceed the mean interarrival time.  The
    search is sequential (each probe depends on the last verdict), but a
    ``cache`` makes repeated searches resolve instantly; to parallelise
    *across* base configs use
    :func:`~repro.sim.parallel.find_max_sustainable_many`.  As in
    :func:`load_sweep`, a ``storage_factory`` bypasses the cache.
    """
    if rate_low <= 0 or rate_high <= rate_low:
        raise ValueError("need 0 < rate_low < rate_high")

    def sustainable(rate: float) -> tuple[bool, SimResult]:
        config = dataclasses.replace(base, arrival_rate=rate)
        if storage_factory is None:
            [result] = run_many([config], cache=cache)
        else:
            result = run_once(config, storage_factory=storage_factory)
        return result.sustainable, result

    ok_low, best = sustainable(rate_low)
    if not ok_low:
        # Even the lightest load is unsustainable; report it as the bound.
        return best
    # Exponential search for the first unsustainable rate, then bisect
    # inside that (tight) bracket — far better resolution than bisecting
    # the whole [rate_low, rate_high] span.
    low, high = rate_low, None
    rate = rate_low
    while rate * 2.0 <= rate_high:
        rate *= 2.0
        ok, result = sustainable(rate)
        if ok:
            low, best = rate, result
        else:
            high = rate
            break
    if high is None:
        ok, result = sustainable(rate_high)
        if ok:
            return result
        high = rate_high
    for _ in range(iterations):
        mid = (low + high) / 2.0
        ok, result = sustainable(mid)
        if ok:
            low, best = mid, result
        else:
            high = mid
    return best
