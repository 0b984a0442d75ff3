"""Series generators for Figures 3-6, with the captions' exact parameters.

* **Figure 3** — "Average time to complete a client request.  average seek
  time = 16 ms, average rotational delay = 8.3 ms, transfer rate = 2.5
  megabytes/second, client request = 1 megabyte, disk transfer unit =
  {4, 16, 32} kilobytes"; disks ∈ {4, 8, 16, 32}.
* **Figure 4** — same but "transfer rate = 1.5 megabytes/second, client
  request = 128 kilobytes, disk transfer unit = 4 kilobytes"; disks ∈
  {1, 2, 4, 8, 16, 32}.
* **Figure 5** — "Observed client data-rate at maximum sustainable load.
  client request = 128 kilobytes, disk transfer unit = 4 kilobytes", for
  six disk models.
* **Figure 6** — same with "client request = 1 megabyte, disk transfer
  unit = 32 kilobytes".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..simdisk import DISK_CATALOG, FIGURE_5_6_DISKS
from ..units import s_to_ms
from .model import SimResult
from .parallel import find_max_sustainable_many
from .sweep import load_sweep
from .workload import SimConfig

__all__ = [
    "FigurePoint",
    "figure3_series",
    "figure4_series",
    "figure5_series",
    "figure6_series",
    "FIG3_BLOCK_SIZES",
    "FIG3_DISK_COUNTS",
    "FIG4_DISK_COUNTS",
    "FIG56_DISK_COUNTS",
]

KB = 1 << 10
MB = 1 << 20

FIG3_BLOCK_SIZES = (4 * KB, 16 * KB, 32 * KB)
FIG3_DISK_COUNTS = (4, 8, 16, 32)
FIG4_DISK_COUNTS = (1, 2, 4, 8, 16, 32)
FIG56_DISK_COUNTS = (1, 2, 4, 8, 16, 32)
DEFAULT_RATES = (1.0, 2.5, 5.0, 7.5, 10.0, 15.0, 20.0, 25.0, 30.0)


@dataclass(frozen=True)
class FigurePoint:
    """One plotted point of a figure."""

    series: str
    x: float
    y: float
    result: SimResult


def _response_time_series(base: SimConfig, series_name: str,
                          rates: Sequence[float],
                          workers: int = 1,
                          cache=None) -> list[FigurePoint]:
    points = []
    for result in load_sweep(base, rates, workers=workers, cache=cache):
        points.append(FigurePoint(
            series=series_name,
            x=result.config.arrival_rate,
            y=s_to_ms(result.mean_completion_s),  # the figures plot ms
            result=result,
        ))
    return points


def figure3_series(rates: Sequence[float] = DEFAULT_RATES,
                   disk_counts: Sequence[int] = FIG3_DISK_COUNTS,
                   block_sizes: Sequence[int] = FIG3_BLOCK_SIZES,
                   num_requests: int = 400,
                   seed: int = 0,
                   workers: int = 1,
                   cache=None) -> list[FigurePoint]:
    """Mean time to complete a 1 MB request vs. load (M2372K disks).

    ``workers``/``cache`` fan the grid out and reuse stored runs — the
    points are bit-identical to the serial, uncached computation.
    """
    points = []
    for unit in block_sizes:
        for disks in disk_counts:
            base = SimConfig(
                num_disks=disks,
                disk=DISK_CATALOG["Fujitsu M2372K"],
                transfer_unit=unit,
                request_size=1 * MB,
                num_requests=num_requests,
                warmup_requests=num_requests // 10,
                seed=seed,
            )
            name = f"{unit // KB}KB blocks, {disks} disks"
            points.extend(_response_time_series(base, name, rates,
                                                workers=workers, cache=cache))
    return points


def figure4_series(rates: Sequence[float] = DEFAULT_RATES,
                   disk_counts: Sequence[int] = FIG4_DISK_COUNTS,
                   num_requests: int = 400,
                   seed: int = 0,
                   workers: int = 1,
                   cache=None) -> list[FigurePoint]:
    """Mean time to complete a 128 KB request vs. load (1.5 MB/s disks)."""
    points = []
    for disks in disk_counts:
        base = SimConfig(
            num_disks=disks,
            disk=DISK_CATALOG["Fujitsu M2372K (1.5MB/s)"],
            transfer_unit=4 * KB,
            request_size=128 * KB,
            num_requests=num_requests,
            warmup_requests=num_requests // 10,
            seed=seed,
        )
        name = f"{disks} disk" + ("s" if disks > 1 else "")
        points.extend(_response_time_series(base, name, rates,
                                            workers=workers, cache=cache))
    return points


def _sustainable_series(request_size: int, transfer_unit: int,
                        disk_counts: Sequence[int],
                        disk_names: Sequence[str],
                        num_requests: int,
                        iterations: int,
                        seed: int,
                        workers: int = 1,
                        cache=None) -> list[FigurePoint]:
    bases = []
    cells = []
    for disk_name in disk_names:
        for disks in disk_counts:
            bases.append(SimConfig(
                num_disks=disks,
                disk=DISK_CATALOG[disk_name],
                transfer_unit=transfer_unit,
                request_size=request_size,
                num_requests=num_requests,
                warmup_requests=num_requests // 10,
                seed=seed,
            ))
            cells.append((disk_name, disks))
    results = find_max_sustainable_many(bases, iterations=iterations,
                                        workers=workers, cache=cache)
    return [
        FigurePoint(series=disk_name, x=disks,
                    y=result.client_data_rate, result=result)
        for (disk_name, disks), result in zip(cells, results)
    ]


def figure5_series(disk_counts: Sequence[int] = FIG56_DISK_COUNTS,
                   disk_names: Sequence[str] = tuple(FIGURE_5_6_DISKS),
                   num_requests: int = 250,
                   iterations: int = 8,
                   seed: int = 0,
                   workers: int = 1,
                   cache=None) -> list[FigurePoint]:
    """Max sustainable data-rate, 128 KB requests / 4 KB units."""
    return _sustainable_series(128 * KB, 4 * KB, disk_counts, disk_names,
                               num_requests, iterations, seed,
                               workers=workers, cache=cache)


def figure6_series(disk_counts: Sequence[int] = FIG56_DISK_COUNTS,
                   disk_names: Sequence[str] = tuple(FIGURE_5_6_DISKS),
                   num_requests: int = 250,
                   iterations: int = 8,
                   seed: int = 0,
                   workers: int = 1,
                   cache=None) -> list[FigurePoint]:
    """Max sustainable data-rate, 1 MB requests / 32 KB units."""
    return _sustainable_series(1 * MB, 32 * KB, disk_counts, disk_names,
                               num_requests, iterations, seed,
                               workers=workers, cache=cache)
