"""Spans, per-layer counters and host-time shares for the traced runs.

Every span is recorded from the benchmark's own files: the workload code
opens ``pass`` and point-level spans, and :func:`instrument` wraps the
program's public entry points (``SwiftSimModel`` build and ``run``,
``Environment.run``, and the parity functions under the names
``repro.core.distribution`` looks them up by) for the length of a traced
pass.  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import cProfile
import io
import itertools
import pstats
import time
from dataclasses import dataclass, field

__all__ = ["Span", "Tracer", "NULL_TRACER", "Recorder", "self_times",
           "self_times_by_name", "instrument", "host_shares",
           "HOST_PACKAGES"]


@dataclass
class Span:
    """One timed interval: ``group`` is the id of its point-level span."""

    id: int
    parent: int | None
    name: str
    group: int | None
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans on one thread, in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._ids = itertools.count()

    @contextlib.contextmanager
    def span(self, name: str, point: bool = False):
        """Time the block; ``point=True`` starts a new span group."""
        parent = self._stack[-1] if self._stack else None
        span_id = next(self._ids)
        group = span_id if point else (parent.group if parent else None)
        span = Span(span_id, parent.id if parent else None, name, group,
                    self.clock())
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = self.clock()
            self._stack.pop()
            self.spans.append(span)


class _NullTracer:
    """Tracing off: the span calls cost one no-op context each."""

    def span(self, name: str, point: bool = False):
        return contextlib.nullcontext()


NULL_TRACER = _NullTracer()


def self_times(spans) -> dict[int, float]:
    """Self time of each span, by span id.

    A span's self time is its duration minus the part of its interval
    that its child spans cover (overlapping children count once).
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    selfs = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.id, ()),
                            key=lambda c: c.start):
            start = max(child.start, reach)
            end = min(child.end, span.end)
            if end > start:
                covered += end - start
                reach = end
        selfs[span.id] = span.duration - covered
    return selfs


def self_times_by_name(spans) -> dict[str, float]:
    """Total self time per span name; point-level spans also under "point"."""
    selfs = self_times(spans)
    totals: dict[str, float] = {}
    for span in spans:
        names = [span.name]
        if span.group == span.id and span.name != "point":
            names.append("point")
        for name in names:
            totals[name] = totals.get(name, 0.0) + selfs[span.id]
    return totals


@dataclass
class Recorder:
    """What one traced pass observed, layer by layer."""

    tracer: object = NULL_TRACER
    probes: list[dict] = field(default_factory=list)
    build_s: list[float] = field(default_factory=list)
    events: int = 0
    run_s: float = 0.0
    parity_bytes: int = 0
    parity_s: float = 0.0
    disk_utilization: list[float] = field(default_factory=list)
    blocks_served: int = 0
    ring_utilization: list[float] = field(default_factory=list)
    ethernet_utilization: list[float] = field(default_factory=list)
    packets: int = 0
    retransmits: int = 0
    naks_sent: int = 0
    reconstructed_units: int = 0
    proto_build_s: list[float] = field(default_factory=list)
    proto_measure_s: list[float] = field(default_factory=list)
    engines: list = field(default_factory=list)

    @property
    def tracing(self) -> bool:
        return self.tracer is not NULL_TRACER

    def add_transfer_stats(self, stats) -> None:
        """Fold in a DistributionAgent's TransferStats."""
        self.packets += stats.packets_sent + stats.packets_received
        self.retransmits += stats.read_retransmits + stats.write_retransmits
        self.reconstructed_units += stats.reconstructed_units

    def add_agents(self, agents) -> None:
        """Fold in StorageAgents' AgentStats and their disks."""
        for agent in agents:
            self.naks_sent += agent.stats.naks_sent
            disk = agent.filesystem.disk
            self.disk_utilization.append(disk.utilization())
            self.blocks_served += disk.blocks_served

    def settle_engines(self) -> None:
        """Fold in the engines :func:`instrument` saw a testbed build."""
        for engine in self.engines:
            self.add_transfer_stats(engine.stats)
        self.engines.clear()


def _wrap(owner, name, make):
    original = getattr(owner, name)
    setattr(owner, name, make(original))
    return owner, name, original


@contextlib.contextmanager
def instrument(recorder: Recorder):
    """Wrap the program's layer entry points for the block's duration."""
    from repro.core import distribution
    from repro.des import Environment
    from repro.prototype import PrototypeTestbed
    from repro.sim.model import SwiftSimModel

    tracer = recorder.tracer
    clock = tracer.clock

    def env_run(original):
        def run(self, *args, **kwargs):
            before = self._eid
            start = clock()
            try:
                with tracer.span("des.run"):
                    return original(self, *args, **kwargs)
            finally:
                recorder.run_s += clock() - start
                recorder.events += self._eid - before
        return run

    def model_build(original):
        def build(self, *args, **kwargs):
            start = clock()
            with tracer.span("model.build"):
                result = original(self, *args, **kwargs)
            recorder.build_s.append(clock() - start)
            return result
        return build

    def model_run(original):
        def run(self):
            start = clock()
            with tracer.span("model.run"):
                result = original(self)
            config = result.config
            recorder.probes.append({
                "run_s": clock() - start,
                "sustainable": result.sustainable,
                "horizon_stopped": result.completed < config.num_requests,
                "requests": config.num_requests + config.warmup_requests,
            })
            for _, disk in self.agents:
                recorder.disk_utilization.append(disk.utilization())
                recorder.blocks_served += disk.blocks_served
            recorder.ring_utilization.append(result.ring_utilization)
            return result
        return run

    def parity(original, count):
        def call(*args):
            start = clock()
            with tracer.span("core.parity"):
                result = original(*args)
            recorder.parity_s += clock() - start
            recorder.parity_bytes += count(*args)
            return result
        return call

    def compute_parity(original):
        def count(units, unit_size):
            return len(units) * unit_size
        wrapped = parity(original, count)

        def call(units, unit_size):
            # Counting must not consume an iterator the caller passed.
            return wrapped(list(units), unit_size)
        return call

    def reconstruct_unit(original):
        def count(survivors, parity_unit, unit_size):
            return (len(survivors) + 1) * unit_size
        return parity(original, count)

    def make_engine(original):
        def make(self, *args, **kwargs):
            engine = original(self, *args, **kwargs)
            recorder.engines.append(engine)
            return engine
        return make

    patches = [
        _wrap(Environment, "run", env_run),
        _wrap(SwiftSimModel, "__init__", model_build),
        _wrap(SwiftSimModel, "warm_reset", model_build),
        _wrap(SwiftSimModel, "run", model_run),
        _wrap(distribution, "compute_parity", compute_parity),
        _wrap(distribution, "reconstruct_unit", reconstruct_unit),
        _wrap(PrototypeTestbed, "_make_engine", make_engine),
    ]
    try:
        yield recorder
    finally:
        for owner, name, original in reversed(patches):
            setattr(owner, name, original)


#: Packages host self time is split into; the rest is "other".
HOST_PACKAGES = ("des", "sim", "simdisk", "simnet", "core", "prototype",
                 "units")


def _package(filename: str) -> str:
    path = filename.replace("\\", "/")
    marker = "/repro/"
    if marker not in path:
        return "other"
    rest = path.split(marker)[-1]
    head = rest.split("/", 1)[0]
    if head.endswith(".py"):
        head = head[:-3]
    return head if head in HOST_PACKAGES else "other"


def host_shares(profiler: cProfile.Profile) -> tuple[dict[str, float], str]:
    """Self time per package in percent, and the top of the profile.

    Time in built-in functions is charged to the package that called
    them, split by the time cProfile recorded on each caller edge, so the
    shares sum to 100 and a faster layer saves at most its share.
    """
    stats = pstats.Stats(profiler)
    seconds = dict.fromkeys(HOST_PACKAGES + ("other",), 0.0)
    for (filename, _, _), (_, _, self_s, _, callers) in stats.stats.items():
        if filename == "~" and callers:
            caller_total = sum(edge[2] for edge in callers.values())
            for (caller_file, _, _), edge in callers.items():
                share = (edge[2] / caller_total if caller_total
                         else 1.0 / len(callers))
                seconds[_package(caller_file)] += self_s * share
        else:
            seconds[_package(filename)] += self_s
    total = sum(seconds.values()) or 1.0
    shares = {name: 100.0 * value / total for name, value in seconds.items()}
    text = io.StringIO()
    pstats.Stats(profiler, stream=text).sort_stats("tottime").print_stats(40)
    return shares, text.getvalue()
