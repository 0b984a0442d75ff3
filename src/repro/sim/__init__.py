"""The §5 simulation study: Swift on a gigabit token ring (Figures 3-6)."""

from .figures import (
    FIG3_BLOCK_SIZES,
    FIG3_DISK_COUNTS,
    FIG4_DISK_COUNTS,
    FIG56_DISK_COUNTS,
    FigurePoint,
    figure3_series,
    figure4_series,
    figure5_series,
    figure6_series,
)
from .cache import ResultCache, code_version, config_key
from .model import SimResult, SwiftSimModel
from .parallel import find_max_sustainable_many, run_many
from .sweep import find_max_sustainable, load_sweep, run_once
from .trace import (
    TraceRecord,
    synthesize_bursty_trace,
    synthesize_poisson_trace,
    trace_mean_rate,
)
from .workload import SimConfig

__all__ = [
    "SimConfig",
    "TraceRecord",
    "synthesize_poisson_trace",
    "synthesize_bursty_trace",
    "trace_mean_rate",
    "SwiftSimModel",
    "SimResult",
    "run_once",
    "load_sweep",
    "find_max_sustainable",
    "run_many",
    "find_max_sustainable_many",
    "ResultCache",
    "config_key",
    "code_version",
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
