"""The repository's benchmark: one workload, one seed, one JSON result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig5_search --seed 0 --seconds 20 --trace 0

``--trace 0`` repeats untraced passes for ``--seconds`` and reports the
end-to-end metrics (``setup_s``, ``wall_s``, ``peak_rss_mb``).  The two
times are host seconds read at a fixed reference speed of the host, which
the run samples as it goes (``hostspeed.py``); the host seconds as
measured are printed above the result line.
``--trace 1`` runs one warm-up pass, alternates untraced and traced
passes for ``--seconds``, then profiles one more pass, and reports the per-layer metrics; it also
writes the spans, self times, tracing overhead and profile under
``perfbench/results/``.  Every operation of every pass is checked; the
last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The benchmark runs serially in this one process, apart from the set-up
probes, which it starts one at a time and waits for.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from hostspeed import HostSpeed
from inputs import (MB, PARITY_OVERWRITES, PARITY_PAYLOAD, WORKLOADS,
                    make_inputs, moved_mb)
from spans import (Recorder, Tracer, host_shares, instrument,
                   self_times_by_name)
from workloads import (check_pass, expected_bytes, load_reference,
                       paper_err_pct, run_pass)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
#: Set-ups timed per run, each in a fresh interpreter; setup_s is their median.
SETUP_PROBES = 5


def import_program():
    """Import ``repro`` from this checkout's ``src``, or stop the run."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as error:
        raise SystemExit(f"cannot import repro from {src}: {error}")
    if Path(repro.__file__).resolve().parent != src.resolve() / "repro":
        raise SystemExit(f"repro was imported from {repro.__file__}, "
                         f"not from {src}")


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Seconds a fresh interpreter takes to set the workload up: as
    measured, and at reference speed."""
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload,
         str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    raw, scaled = done.stdout.split()[-2:]
    return float(raw), float(scaled)


class Checker:
    """Counts operations attempted and failed across a run's passes."""

    def __init__(self, workload: str, seed: int, inputs: dict):
        self.workload = workload
        self.reference = load_reference(workload, seed)
        self.expected = (expected_bytes(inputs)
                         if workload == "parity_io" else None)
        self.first = None
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, inputs: dict, recorder: Recorder):
        """One checked pass; None if the program raised."""
        gc.collect()
        try:
            result = run_pass(self.workload, inputs, recorder)
        except Exception:
            traceback.print_exc()
            self.attempted += 1
            self.failures.append(f"{self.workload}: the pass raised")
            return None
        self.attempted += len(result.ops)
        self.failures += check_pass(self.workload, result.ops,
                                    self.reference, self.first,
                                    self.expected)
        if self.first is None and self.workload != "parity_io":
            self.first = result.ops
        return result

    def summary(self, metrics: dict) -> dict:
        for failure in self.failures[:20]:
            print("FAILED", failure, file=sys.stderr)
        return {"correct": not self.failures, "attempted": self.attempted,
                "failed": len(self.failures), "metrics": metrics}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def detail_metrics(workload: str, results: list, host: HostSpeed) -> dict:
    """The workload's own end-user figures, from untraced passes.

    Each is 0 on the workloads it does not apply to.
    """
    paper = 0.0
    if workload == "proto_tables":
        paper = paper_err_pct(results[0].ops)

    def median_rate(phase, amount):
        if workload != "parity_io":
            return 0.0
        return statistics.median(
            amount / host.reference_seconds(*r.phases[phase])
            for r in results)

    payload_mb = PARITY_PAYLOAD / MB
    return {
        "prototype.paper_err_pct": _metric(paper, "%"),
        "datapath.write_mb_s": _metric(
            median_rate("write", payload_mb), "MB/s"),
        "datapath.read_mb_s": _metric(
            median_rate("read", payload_mb), "MB/s"),
        "datapath.overwrite_ops_s": _metric(
            median_rate("overwrite", PARITY_OVERWRITES), "1/s"),
        "datapath.degraded_read_mb_s": _metric(
            median_rate("degraded_read", payload_mb), "MB/s"),
    }


def more_time(start: float, seconds: float, last_s: float) -> bool:
    """Start another pass only if, going by the last one, half of it fits.

    The run then measures ``seconds`` give or take half a pass.
    """
    return time.perf_counter() - start + 0.5 * last_s < seconds


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    """The untraced run: end-to-end metrics."""
    setups = [probe_setup(workload, seed) for _ in range(SETUP_PROBES)]
    inputs = make_inputs(workload, seed)
    checker = Checker(workload, seed, inputs)
    results = []
    with HostSpeed() as host:
        start = time.perf_counter()
        while not results or more_time(start, seconds, results[-1].wall_s):
            result = checker.run(inputs, Recorder())
            if result is None:
                break
            if results:
                result.ops = None  # checked already; only the first is kept
            results.append(result)
    if not results:
        checker.summary({})
        raise SystemExit("the program raised on the first pass")
    walls = [host.reference_seconds(r.start, r.end) for r in results]
    for name, metric in detail_metrics(workload, results, host).items():
        if metric["value"]:
            print(f"{workload} {name} = {metric['value']:.6g} "
                  f"{metric['unit']}")
    print(f"{workload}: {len(results)} passes; host seconds per pass "
          f"{[round(r.wall_s, 4) for r in results]}, at reference speed "
          f"{[round(w, 4) for w in walls]}; set-up host seconds "
          f"{[round(raw, 4) for raw, _ in setups]}")
    return checker.summary({
        "setup_s": _metric(statistics.median(s for _, s in setups), "s"),
        "wall_s": _metric(statistics.median(walls), "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    })


def _quantile(values: list, fraction: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[
        round(fraction * 100) - 1]


def _mean(values: list) -> float:
    return sum(values) / len(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: Self time is reported for these spans (0 where a workload has none);
#: "point" sums every point-level span (a figure point, a table cell, a
#: data-path phase).
SELF_SPANS = ("point", "model.build", "model.run", "des.run", "core.parity",
              "prototype.build", "prototype.measure")


def layer_metrics(workload: str, inputs: dict, recorders: list,
                  traced: list, untraced: list, spans: list,
                  shares: dict, host: HostSpeed) -> dict:
    """Per-layer metrics from the traced passes; 0 where a layer is idle.

    Span and counter times are host seconds; the tracing overhead compares
    traced and untraced passes at reference speed.
    """
    passes = len(recorders)
    traced_s = sum(r.wall_s for r in traced)
    probes = [p for rec in recorders for p in rec.probes]
    build_s = [b for rec in recorders for b in rec.build_s]
    run_s = sorted(p["run_s"] for p in probes)
    requests = sum(p["requests"] for p in probes)
    events = sum(rec.events for rec in recorders)
    des_s = sum(rec.run_s for rec in recorders)
    points = len(traced[0].ops) if workload in ("fig5_search",
                                                "fig3_curve") else 0
    payload_mb = moved_mb(workload, inputs)
    unsustainable = [p for p in probes if not p["sustainable"]]
    parity_s = sum(rec.parity_s for rec in recorders)
    untraced_wall = statistics.median(
        host.reference_seconds(r.start, r.end) for r in untraced)
    traced_wall = statistics.median(
        host.reference_seconds(r.start, r.end) for r in traced)
    selfs = self_times_by_name(spans)
    m = {
        "sweep.probes_per_point": _metric(
            _ratio(len(probes), passes * points), "count"),
        "sweep.unsustainable_probe_share": _metric(
            _ratio(len(unsustainable), len(probes)), "ratio"),
        "sweep.unsustainable_time_share": _metric(
            _ratio(sum(p["run_s"] for p in unsustainable), traced_s),
            "ratio"),
        "model.build_ms": _metric(
            1e3 * statistics.median(build_s) if build_s else 0.0, "ms"),
        "model.run_ms.p50": _metric(1e3 * _quantile(run_s, 0.5), "ms"),
        "model.run_ms.p90": _metric(1e3 * _quantile(run_s, 0.9), "ms"),
        "model.horizon_stopped_share": _metric(
            _ratio(sum(p["horizon_stopped"] for p in probes), len(probes)),
            "ratio"),
        "model.host_us_per_request": _metric(
            1e6 * _ratio(sum(run_s), requests), "us"),
        "des.events": _metric(events / passes, "count"),
        "des.events_per_request": _metric(_ratio(events, requests), "count"),
        "des.events_per_mb": _metric(
            _ratio(events / passes, payload_mb), "1/MB"),
        "des.host_ns_per_event": _metric(1e9 * _ratio(des_s, events), "ns"),
        "des.run_share": _metric(_ratio(des_s, traced_s), "ratio"),
        "simdisk.utilization": _metric(
            _mean([u for rec in recorders for u in rec.disk_utilization]),
            "ratio"),
        "simdisk.blocks_served": _metric(
            sum(rec.blocks_served for rec in recorders) / passes, "count"),
        "simnet.ring_utilization": _metric(
            _mean([u for rec in recorders for u in rec.ring_utilization]),
            "ratio"),
        "simnet.ethernet_utilization": _metric(
            _mean([u for rec in recorders
                   for u in rec.ethernet_utilization]), "ratio"),
        "core.parity.mb_s": _metric(
            _ratio(sum(rec.parity_bytes for rec in recorders) / MB,
                   parity_s), "MB/s"),
        "core.parity.share": _metric(_ratio(parity_s, traced_s), "ratio"),
        "core.packets_per_mb": _metric(
            _ratio(sum(rec.packets for rec in recorders) / passes,
                   payload_mb),
            "1/MB"),
        "core.retransmits": _metric(
            sum(rec.retransmits for rec in recorders) / passes, "count"),
        "core.naks_sent": _metric(
            sum(rec.naks_sent for rec in recorders) / passes, "count"),
        "core.reconstructed_units": _metric(
            sum(rec.reconstructed_units for rec in recorders) / passes,
            "count"),
        "prototype.build_ms": _metric(1e3 * _quantile(sorted(
            b for rec in recorders for b in rec.proto_build_s), 0.5), "ms"),
        "prototype.measure_ms": _metric(1e3 * _quantile(sorted(
            b for rec in recorders for b in rec.proto_measure_s), 0.5),
            "ms"),
        "trace.untraced_wall_s": _metric(untraced_wall, "s"),
        "trace.overhead_s": _metric(traced_wall - untraced_wall, "s"),
        "trace.overhead_pct": _metric(
            100.0 * _ratio(traced_wall - untraced_wall, untraced_wall), "%"),
    }
    for name in SELF_SPANS:
        m[f"self_ms.{name}"] = _metric(
            1e3 * selfs.get(name, 0.0) / passes, "ms")
    for package, share in shares.items():
        m[f"host_share.{package}"] = _metric(share, "%")
    return m


def traced(workload: str, seed: int, seconds: float) -> dict:
    """The traced run: per-layer metrics, spans and a profile."""
    inputs = make_inputs(workload, seed)
    checker = Checker(workload, seed, inputs)
    tracer = Tracer()
    untraced_results, traced_results, recorders = [], [], []
    # A process's first pass runs slow (lazy imports, allocator growth);
    # left in, it would land on one side of the tracing overhead.
    if checker.run(inputs, Recorder()) is None:
        checker.summary({})
        raise SystemExit("the program raised during the warm-up pass")
    with HostSpeed() as host:
        start = time.perf_counter()
        while not traced_results or more_time(
                start, seconds, untraced_results[-1].wall_s
                + traced_results[-1].wall_s):
            plain = checker.run(inputs, Recorder())
            recorder = Recorder(tracer=tracer)
            with instrument(recorder):
                result = checker.run(inputs, recorder)
            if plain is None or result is None:
                checker.summary({})
                raise SystemExit("the program raised during a pass")
            untraced_results.append(plain)
            traced_results.append(result)
            recorders.append(recorder)

    profiler = cProfile.Profile()
    profiler.enable()
    profiled = checker.run(inputs, Recorder())
    profiler.disable()
    if profiled is None:
        checker.summary({})
        raise SystemExit("the program raised during the profiled pass")
    shares, profile_text = host_shares(profiler)

    metrics = layer_metrics(workload, inputs, recorders, traced_results,
                            untraced_results, tracer.spans, shares, host)
    metrics.update(detail_metrics(workload, untraced_results, host))
    write_outputs(workload, seed, tracer, metrics, profile_text, shares,
                  len(recorders))
    return checker.summary(metrics)


def write_outputs(workload, seed, tracer, metrics, profile_text, shares,
                  passes) -> None:
    """Spans, self times, overhead and the profile, one file pair per run."""
    RESULTS_DIR.mkdir(exist_ok=True)
    stem = RESULTS_DIR / f"{workload}-seed{seed}"
    spans = [{"id": s.id, "parent": s.parent, "name": s.name,
              "group": s.group, "start": s.start, "end": s.end}
             for s in tracer.spans]
    Path(f"{stem}-trace.json").write_text(json.dumps({
        "workload": workload, "seed": seed, "traced_passes": passes,
        "self_s_per_pass": {name: value / passes for name, value in
                            sorted(self_times_by_name(tracer.spans).items())},
        "tracing_overhead_s": metrics["trace.overhead_s"]["value"],
        "metrics": metrics, "spans": spans}, indent=1))
    lines = [f"host self time by package, {workload} seed {seed} (%):"]
    lines += [f"  {name:<10} {share:6.2f}" for name, share in shares.items()]
    Path(f"{stem}-profile.txt").write_text(
        "\n".join(lines) + "\n\n" + profile_text)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    run = traced if args.trace else end_to_end
    print(json.dumps(run(args.workload, args.seed, args.seconds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
