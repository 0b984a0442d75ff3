"""One pass of each workload, driven through the program's public functions,
and the checks that decide whether each operation's output is correct.

An operation is one figure point, one table cell or one data-path read.
A pass returns ``[(key, outcome), ...]`` in a fixed order; the checks
compare outcomes with the committed references (seeds that have them),
with the physical limits every output must respect, and with the first
pass of the same run (the program is deterministic).
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from pathlib import Path

from inputs import fig5_tolerance

__all__ = ["run_pass", "check_pass", "load_reference", "expected_bytes",
           "paper_err_pct", "PassResult"]

REFERENCE_DIR = Path(__file__).resolve().parent / "references"
KILOBYTE = 1 << 10
#: 10 Mbit/s Ethernet in KB/s: no table cell can beat its links.
ETHERNET_KB_S = 10e6 / 8 / KILOBYTE


@dataclasses.dataclass
class PassResult:
    """What one pass produced: outcomes by operation, and when it ran.

    ``phases`` maps a parity_io phase to its (start, end) clock readings.
    """

    ops: list
    start: float
    end: float
    phases: dict = dataclasses.field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def _plain(value):
    """The JSON form of ``value`` (what references store and compare)."""
    return json.loads(json.dumps(value))


def _point_outcome(point) -> dict:
    return _plain({"series": point.series, "x": point.x, "y": point.y,
                   "result": dataclasses.asdict(point.result)})


# -- passes -------------------------------------------------------------------


def _fig5_pass(inputs, recorder) -> list:
    from repro.sim import figure5_series
    tracer = recorder.tracer
    ops = []
    for disk_name, disks in inputs["cells"]:
        with tracer.span("point", point=True):
            [point] = figure5_series(
                disk_counts=(disks,), disk_names=(disk_name,),
                num_requests=inputs["num_requests"],
                iterations=inputs["iterations"], seed=inputs["sim_seed"])
        ops.append((f"{disk_name}/{disks}", _point_outcome(point)))
    return ops


def _fig3_pass(inputs, recorder) -> list:
    from repro.sim import figure3_series
    from repro.sim.figures import DEFAULT_RATES
    tracer = recorder.tracer
    ops = []
    for disks in inputs["disks"]:
        for rate in DEFAULT_RATES:
            with tracer.span("point", point=True):
                [point] = figure3_series(
                    rates=(rate,), disk_counts=(disks,),
                    block_sizes=(inputs["unit"],),
                    num_requests=inputs["num_requests"],
                    seed=inputs["sim_seed"])
            ops.append((f"{disks}/{rate:g}", _point_outcome(point)))
    return ops


def _proto_pass(inputs, recorder) -> list:
    from repro.des import SampleSet
    from repro.prototype import PrototypeTestbed
    tracer = recorder.tracer
    clock = time.perf_counter
    ops = []
    for cell in inputs["cells"]:
        size = cell["size_mb"] << 20
        samples = SampleSet()
        with tracer.span("cell", point=True):
            for seed in cell["seeds"]:
                with tracer.span("sample"):
                    start = clock()
                    with tracer.span("prototype.build"):
                        testbed = PrototypeTestbed(
                            second_ethernet=cell["second_ethernet"],
                            seed=seed)
                        if cell["op"] == "Read":
                            testbed.prepare_object("obj", size)
                    built = clock()
                    with tracer.span("prototype.measure"):
                        if cell["op"] == "Read":
                            kb_s = testbed.measure_read("obj", size)
                        else:
                            kb_s = testbed.measure_write("obj", size)
                    samples.add(kb_s)
                    if recorder.tracing:
                        recorder.proto_build_s.append(built - start)
                        recorder.proto_measure_s.append(clock() - built)
                        recorder.settle_engines()
                        recorder.add_agents(testbed.agents.values())
                        segments = ["laboratory"]
                        if cell["second_ethernet"]:
                            segments.append("departmental")
                        for segment in segments:
                            recorder.ethernet_utilization.append(
                                testbed.network_utilization(segment))
        key = f"{cell['table']}/{cell['op']} {cell['size_mb']} MB"
        ops.append((key, _plain({"samples": list(samples.samples),
                                 **samples.row()})))
    return ops


def expected_bytes(inputs) -> dict[str, bytes]:
    """What each parity_io read must return: a plain byte-array model."""
    image = bytearray(inputs["payload"])
    for offset, data in inputs["overwrites"]:
        image[offset:offset + len(data)] = data
    return {"read": inputs["payload"], "degraded_read": bytes(image)}


def _parity_pass(inputs, recorder) -> tuple[list, dict]:
    from repro.core import build_local_swift
    tracer = recorder.tracer
    clock = time.perf_counter
    payload = inputs["payload"]
    deployment = build_local_swift(num_agents=inputs["agents"], parity=True,
                                   seed=inputs["deployment_seed"])
    swift_file = deployment.client().open("obj", "w", parity=True)
    engine = swift_file.engine
    phases = {}
    ops = []

    def timed(name, call):
        with tracer.span(name, point=True):
            start = clock()
            result = call()
            phases[name] = (start, clock())
        return result

    timed("write", lambda: swift_file.pwrite(0, payload))
    ops.append(("read", timed(
        "read", lambda: swift_file.pread(0, len(payload)))))

    def overwrite():
        for offset, data in inputs["overwrites"]:
            swift_file.pwrite(offset, data)
    timed("overwrite", overwrite)

    channels = engine.data_channels
    index = inputs["victim_index"] % len(channels)
    deployment.crash_agent(channels[index].agent_host)
    engine.mark_failed(index)
    ops.append(("degraded_read", timed(
        "degraded_read", lambda: swift_file.pread(0, len(payload)))))
    if recorder.tracing:
        recorder.add_transfer_stats(engine.stats)
        recorder.add_agents(deployment.agents.values())
    return ops, phases


def run_pass(workload: str, inputs: dict, recorder) -> PassResult:
    """Run one pass of ``workload`` and time it on the host clock."""
    start = time.perf_counter()
    phases = {}
    with recorder.tracer.span("pass"):
        if workload == "fig5_search":
            ops = _fig5_pass(inputs, recorder)
        elif workload == "fig3_curve":
            ops = _fig3_pass(inputs, recorder)
        elif workload == "proto_tables":
            ops = _proto_pass(inputs, recorder)
        elif workload == "parity_io":
            ops, phases = _parity_pass(inputs, recorder)
        else:
            raise ValueError(f"unknown workload {workload!r}")
    return PassResult(ops, start, time.perf_counter(), phases)


# -- correctness --------------------------------------------------------------


def load_reference(workload: str, seed: int) -> dict | None:
    """Committed outcomes for ``seed``, or None if there are none."""
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text()).get(str(seed))


def _close(value, reference, tolerance) -> bool:
    return abs(value - reference) <= tolerance * abs(reference)


def _point_problems(workload: str, outcome: dict) -> list[str]:
    result = outcome["result"]
    config = result["config"]
    problems = []
    if result["completed"] < 1:
        problems.append("no completed requests")
    for name in ("mean_disk_utilization", "ring_utilization"):
        if not 0.0 <= result[name] <= 1.0:
            problems.append(f"{name} {result[name]} outside [0, 1]")
    if result["mean_completion_s"] > result["max_completion_s"]:
        problems.append("mean completion above the maximum")
    ring_s = config["request_size"] * 8 / config["ring_bits_per_second"]
    if result["mean_completion_s"] < ring_s:
        problems.append("a request completed faster than the ring sends it")
    if workload == "fig3_curve":
        if outcome["x"] != config["arrival_rate"]:
            problems.append("x is not the arrival rate")
        if not math.isclose(outcome["y"], result["mean_completion_s"] * 1e3,
                            rel_tol=1e-12):
            problems.append("y is not the mean completion in ms")
        horizon = 8.0 * config["num_requests"] / config["arrival_rate"]
        if (result["completed"] < config["num_requests"]
                and result["duration_s"] < horizon * (1 - 1e-9)):
            problems.append("run stopped short of its horizon")
    else:
        if outcome["x"] != config["num_disks"]:
            problems.append("x is not the disk count")
        if outcome["y"] != result["client_data_rate"]:
            problems.append("y is not the client data-rate")
        if result["mean_completion_s"] > result["mean_interarrival_s"]:
            problems.append("the reported load is not sustainable")
        media = (config["num_disks"]
                 * config["disk"]["transfer_rate_bytes_per_s"])
        if not 0.0 < outcome["y"] <= media:
            problems.append("data-rate outside (0, aggregate media rate]")
    return problems


def _cell_problems(key: str, outcome: dict) -> list[str]:
    links = 2 if key.startswith("table4") else 1
    samples = outcome["samples"]
    problems = []
    if not samples:
        problems.append("no samples")
    elif not all(0.0 < kb_s <= links * ETHERNET_KB_S for kb_s in samples):
        problems.append("a sample outside (0, Ethernet capacity]")
    elif not math.isclose(outcome["mean"], sum(samples) / len(samples),
                          rel_tol=1e-12):
        problems.append("mean is not the mean of the samples")
    return problems


def _reference_problems(workload: str, outcome: dict,
                        reference: dict) -> list[str]:
    if workload != "fig5_search":
        return [] if outcome == reference else ["differs from the reference"]
    tolerance = fig5_tolerance()
    rate = outcome["result"]["config"]["arrival_rate"]
    ref_rate = reference["result"]["config"]["arrival_rate"]
    if outcome["x"] != reference["x"]:
        return ["x differs from the reference"]
    if not (_close(rate, ref_rate, tolerance)
            and _close(outcome["y"], reference["y"], tolerance)):
        return [f"rate or data-rate beyond {tolerance:.2%} of the reference"]
    return []


def check_pass(workload: str, ops: list, reference: dict | None = None,
               first_pass: list | None = None,
               expected: dict | None = None) -> list[str]:
    """One message per failed operation of a pass; empty when all passed.

    ``expected`` maps each parity_io read to the bytes it must return.
    """
    failures = []
    for index, (key, outcome) in enumerate(ops):
        if workload == "parity_io":
            problems = [] if outcome == expected[key] else ["wrong bytes"]
        else:
            if workload == "proto_tables":
                problems = _cell_problems(key, outcome)
            else:
                problems = _point_problems(workload, outcome)
            if reference is not None:
                if key in reference:
                    problems += _reference_problems(workload, outcome,
                                                    reference[key])
                else:
                    problems.append("no reference for this operation")
            if first_pass is not None and first_pass[index] != (key,
                                                                outcome):
                problems.append("differs from the run's first pass")
        if problems:
            failures.append(f"{workload} {key}: {'; '.join(problems)}")
    return failures


def paper_err_pct(ops: list) -> float:
    """Mean |measured / paper - 1| x 100 over the Table 1 and 4 cells."""
    from repro.prototype import PAPER_TABLE1, PAPER_TABLE4
    papers = {"table1": PAPER_TABLE1, "table4": PAPER_TABLE4}
    errors = []
    for key, outcome in ops:
        table, label = key.split("/", 1)
        errors.append(abs(outcome["mean"] / papers[table][label] - 1.0))
    return 100.0 * sum(errors) / len(errors)
