"""Parameter sweeps: load curves and the maximum sustainable data-rate.

Figures 3 and 4 plot mean time-to-complete against the request arrival
rate; Figures 5 and 6 plot, per disk count and disk model, "the data-rate
observed by the client when the average time to complete a request is the
same as the average time between requests" (§5.2) — found here by a
bracketed root search on the arrival rate, starting from the
utilization-law ceiling of :mod:`repro.sim.validation`.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

from .model import SimResult, SwiftSimModel
from .parallel import run_many
from .validation import sustainable_rate_bound
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
    """Search for the §5.2 maximum-sustainable-load point.

    Returns the result at the highest arrival rate probed whose mean
    completion time does not exceed the mean interarrival time.

    The search brackets the boundary with the utilization-law ceiling U
    (:func:`~repro.sim.validation.sustainable_rate_bound`): it probes
    U/2 and U, halving the low end until it is sustainable or doubling
    the high end until it is not.  That widening stops at ``rate_low``
    (returned as the bound if even it is unsustainable) and ``rate_high``
    (returned if it is sustainable); it is what covers storage whose
    demand U does not see (a ``storage_factory`` for RAID or tape).  It
    then narrows the bracket by Illinois false position on
    g(rate) = rate x mean completion - 1, each probe kept inside the
    middle 80% of the bracket, until the bracket is no wider than
    ``low * 2**-iterations`` — the resolution of ``iterations`` bisection
    steps from a ``[r, 2r]`` bracket, so ``iterations`` keeps the meaning
    it had when this was a bisection.  False position gets
    ``iterations + 2`` probes for that, and each probe is pulled towards
    the middle just enough that bisection could still finish in the
    probes left, so the resolution is always reached.  With the two
    bracket probes the search never takes more probes than doubling up
    from ``rate_low`` and bisecting would, as long as the sustainable
    rate is at least ``4 * rate_low`` and the bracket needs no widening.

    The search is sequential (each probe depends on the last verdict),
    but a ``cache`` makes repeated searches resolve instantly; to
    parallelise *across* base configs use
    :func:`~repro.sim.parallel.find_max_sustainable_many`.  As in
    :func:`load_sweep`, a ``storage_factory`` bypasses the cache.
    """
    if rate_low <= 0 or rate_high <= rate_low:
        raise ValueError("need 0 < rate_low < rate_high")

    def probe(rate: float) -> tuple[bool, float, SimResult]:
        config = dataclasses.replace(base, arrival_rate=rate)
        if storage_factory is None:
            [result] = run_many([config], cache=cache)
        else:
            result = run_once(config, storage_factory=storage_factory)
        # g is +inf when nothing completed (mean completion is inf).
        return (result.sustainable,
                rate * result.mean_completion_s - 1.0, result)

    bound = sustainable_rate_bound(base)
    low = min(max(rate_low, bound / 2.0), rate_high)
    high = min(max(rate_low, bound), rate_high)
    ok, g_low, best = probe(low)
    g_high = None
    while not ok:
        if low == rate_low:
            # Even the lightest load is unsustainable; report it as the bound.
            return best
        high, g_high = low, g_low
        low = max(low / 2.0, rate_low)
        ok, g_low, best = probe(low)
    while g_high is None:
        if high <= low:
            if low == rate_high:
                return best
            high = min(2.0 * low, rate_high)
        ok, g, result = probe(high)
        if ok:
            low, g_low, best = high, g, result
        else:
            g_high = g

    # False position may take two probes more than bisection would; each
    # probe is kept near enough to the middle that bisection could still
    # finish in the probes left (the projection step of the ITP method).
    budget = iterations + 2
    kept = None  # which end the last probe left in place
    while high - low > low * 2.0 ** -iterations:
        width = high - low
        reach = low * 2.0 ** (budget - 1 - iterations)
        if math.isinf(g_high) or g_high == g_low:
            rate = low + width / 2.0
        else:
            rate = (low * g_high - high * g_low) / (g_high - g_low)
            rate = min(max(rate, low + 0.1 * width), high - 0.1 * width)
            rate = min(max(rate, high - reach), low + reach)
        ok, g, result = probe(rate)
        budget -= 1
        if ok:
            low, g_low, best = rate, g, result
            if kept == "high":
                g_high /= 2.0  # Illinois: the same end kept twice
            kept = "high"
        else:
            high, g_high = rate, g
            if kept == "low":
                g_low /= 2.0
            kept = "low"
    return best
