"""Benchmark: model runs per point of the §5.2 sustainable-load search.

Not a paper result — this prices the search layer under Figures 5 and 6.
It runs the quick-scale Figure 5 grid of ``bench_fig5_sustainable_4k``
(IBM 3380K, Fujitsu M2372K and DEC RA82 at 2, 8 and 32 disks; 120
requests; ``iterations=6``) at that size in every mode, through a fresh
:class:`~repro.sim.ResultCache` whose misses count the probes.  Probe
counts are deterministic, so ``check_regression.py`` holds
``probes_per_point`` in ``BENCH_sweep_search.json`` to the committed
``baselines/BENCH_sweep_search.json`` exactly; ``wall_s`` is
informational.
"""

import shutil
import tempfile
import time
from pathlib import Path

from _common import archive_json

from repro.sim import ResultCache, figure5_series

DISK_COUNTS = (2, 8, 32)
DISK_NAMES = ("IBM 3380K", "Fujitsu M2372K", "DEC RA82")
NUM_REQUESTS = 120
ITERATIONS = 6


def bench_sweep_search(benchmark):
    cache_dir = Path(tempfile.mkdtemp(prefix="repro-bench-search-"))
    try:
        cache = ResultCache(cache_dir)
        start = time.perf_counter()
        points = benchmark.pedantic(
            lambda: figure5_series(disk_counts=DISK_COUNTS,
                                   disk_names=DISK_NAMES,
                                   num_requests=NUM_REQUESTS,
                                   iterations=ITERATIONS, cache=cache),
            rounds=1, iterations=1)
        wall_s = time.perf_counter() - start
        probes = cache.misses
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    assert all(point.result.sustainable for point in points)
    payload = {
        "grid": f"fig5 quick grid: {len(DISK_NAMES)} disk models x "
                f"{len(DISK_COUNTS)} counts, {NUM_REQUESTS} requests, "
                f"iterations={ITERATIONS}",
        "points": len(points),
        "probes": probes,
        "probes_per_point": probes / len(points),
        "wall_s": wall_s,
    }
    path = archive_json("BENCH_sweep_search", payload)
    print(f"\nsearch: {probes} probes for {len(points)} points "
          f"({payload['probes_per_point']:.2f} per point) in "
          f"{wall_s:.1f} s -> {path}")
