"""Tests for the benchmark's own code (not part of the repository's suite).

    python3 -m pytest perfbench/tests -q
"""

import copy
import cProfile
import json
import re
import time

import pytest

from hostspeed import REFERENCE_SAMPLE_S, HostSpeed
from inputs import WORKLOADS, fig5_tolerance, make_inputs
from run import BENCH_DIR, layer_metrics, detail_metrics
from spans import (HOST_PACKAGES, Recorder, Span, Tracer, host_shares,
                   self_times, self_times_by_name)
from workloads import (PassResult, check_pass, expected_bytes,
                       load_reference)

BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


# -- spans and self time ------------------------------------------------------


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        Span(0, None, "pass", None, 0.0, 10.0),
        Span(1, 0, "point", 1, 1.0, 9.0),
        Span(2, 1, "model.build", 1, 1.5, 2.0),
        Span(3, 1, "model.run", 1, 2.0, 6.0),
        Span(4, 3, "des.run", 1, 3.0, 5.0),
        Span(5, 1, "model.run", 1, 6.0, 8.0),
    ]
    assert self_times(spans) == {0: 2.0, 1: 1.5, 2: 0.5, 3: 2.0, 4: 2.0,
                                 5: 2.0}
    assert self_times_by_name(spans) == {
        "pass": 2.0, "point": 1.5, "model.build": 0.5, "model.run": 4.0,
        "des.run": 2.0}


def test_overlapping_children_count_once():
    spans = [
        Span(0, None, "parent", 0, 0.0, 10.0),
        Span(1, 0, "a", 0, 1.0, 5.0),
        Span(2, 0, "b", 0, 3.0, 7.0),
        Span(3, 0, "c", 0, 9.0, 12.0),  # runs past its parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_point_level_spans_also_count_as_point():
    spans = [Span(0, None, "write", 0, 0.0, 3.0),
             Span(1, 0, "des.run", 0, 0.5, 2.5)]
    totals = self_times_by_name(spans)
    assert totals["write"] == totals["point"] == 1.0


def test_tracer_records_parents_and_groups():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("pass"):
        for _ in range(2):
            with tracer.span("point", point=True):
                with tracer.span("model.run"):
                    pass
    by_id = {span.id: span for span in tracer.spans}
    runs = [s for s in tracer.spans if s.name == "model.run"]
    points = [s for s in tracer.spans if s.name == "point"]
    assert [by_id[s.parent].name for s in runs] == ["point", "point"]
    assert [s.group for s in runs] == [p.id for p in points]
    assert len({s.id for s in tracer.spans}) == len(tracer.spans) == 5
    assert all(s.end > s.start for s in tracer.spans)


def test_host_shares_sum_to_100():
    profiler = cProfile.Profile()
    profiler.enable()
    sorted(range(10000), key=lambda x: -x)
    profiler.disable()
    shares, text = host_shares(profiler)
    assert sum(shares.values()) == pytest.approx(100.0)
    assert "function calls" in text


def test_reference_seconds_scale_by_sampled_speed():
    host = HostSpeed()
    # Two samples inside [0, 10]: the host ran at half, then full speed.
    host.starts = [1.0, 5.0]
    host.durations = [2 * REFERENCE_SAMPLE_S, REFERENCE_SAMPLE_S]
    net = 10.0 - 3 * REFERENCE_SAMPLE_S
    assert host.reference_seconds(0.0, 10.0) == pytest.approx(net * 0.75)
    # Shorter than the timer period: the nearest sample stands in.
    assert host.reference_seconds(5.5, 5.6) == pytest.approx(0.1)


def test_host_speed_samples_on_its_timer():
    with HostSpeed(interval_s=0.01) as host:
        deadline = time.perf_counter() + 0.1
        while time.perf_counter() < deadline:
            pass
    assert len(host.durations) >= 3
    assert host.starts == sorted(host.starts)


# -- metric names -------------------------------------------------------------


def test_benchmark_names_are_well_formed():
    names = ([w["name"] for w in BENCHMARK["workloads"]]
             + [m["name"] for m in BENCHMARK["end_to_end"]]
             + [m["name"] for m in BENCHMARK["per_layer"]])
    assert all(NAME.match(name) for name in names), names
    assert len(names) == len(set(names))
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    inputs = make_inputs(workload, 0)
    ops = [("x", {})] * 3
    phases = dict.fromkeys(("write", "read", "overwrite", "degraded_read"),
                           (0.0, 1.0))
    result = PassResult(ops=ops, start=0.0, end=1.0, phases=phases)
    if workload == "proto_tables":
        result.ops = [("table1/Read 3 MB", {"mean": 893.0})]
    shares = dict.fromkeys(HOST_PACKAGES + ("other",), 12.5)
    host = HostSpeed()
    host.sample()
    metrics = layer_metrics(workload, inputs, [Recorder()], [result],
                            [result], [], shares, host)
    metrics.update(detail_metrics(workload, [result], host))
    assert all(NAME.match(name) for name in metrics)
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: m["unit"] for name, m in metrics.items()} == expected


# -- correctness checks -------------------------------------------------------


def _reference_ops(workload):
    reference = load_reference(workload, 0)
    assert reference, f"no committed reference for {workload}"
    return reference, list(reference.items())


@pytest.mark.parametrize("workload", ["fig5_search", "fig3_curve",
                                      "proto_tables"])
def test_reference_outcomes_pass_their_own_checks(workload):
    reference, ops = _reference_ops(workload)
    assert check_pass(workload, ops, reference, first_pass=ops) == []
    assert check_pass(workload, ops) == []  # the invariants alone


@pytest.mark.parametrize("workload", ["fig3_curve", "proto_tables"])
def test_a_wrong_fixed_config_point_is_one_failure(workload):
    reference, ops = _reference_ops(workload)
    wrong = copy.deepcopy(ops)
    key, outcome = wrong[2]
    if workload == "fig3_curve":
        outcome["result"]["max_completion_s"] *= 1.0 + 1e-12
    else:
        outcome["stdev"] += 1e-9
    failures = check_pass(workload, wrong, reference)
    assert len(failures) == 1 and key in failures[0]


def test_a_fig5_point_inside_the_search_tolerance_passes():
    reference, ops = _reference_ops("fig5_search")
    tolerance = fig5_tolerance()
    assert tolerance == 2.0 ** -7
    moved = copy.deepcopy(ops)
    for _, outcome in moved:
        outcome["y"] *= 1.0 + tolerance / 2
        outcome["result"]["client_data_rate"] = outcome["y"]
    assert check_pass("fig5_search", moved, reference) == []
    for _, outcome in moved[:1]:
        outcome["y"] *= 1.0 + 2 * tolerance
        outcome["result"]["client_data_rate"] = outcome["y"]
    assert len(check_pass("fig5_search", moved, reference)) == 1


def test_an_unsustainable_fig5_point_fails_without_a_reference():
    _, ops = _reference_ops("fig5_search")
    wrong = copy.deepcopy(ops)
    result = wrong[0][1]["result"]
    result["mean_completion_s"] = 2 * result["mean_interarrival_s"]
    result["max_completion_s"] = 3 * result["mean_interarrival_s"]
    assert len(check_pass("fig5_search", wrong)) == 1


def test_a_pass_that_differs_from_the_first_is_a_failure():
    _, ops = _reference_ops("fig3_curve")
    later = copy.deepcopy(ops)
    later[5][1]["result"]["ring_utilization"] /= 2
    assert len(check_pass("fig3_curve", later, first_pass=ops)) == 1


def test_a_corrupted_byte_is_one_failure():
    inputs = make_inputs("parity_io", 3)
    expected = expected_bytes(inputs)
    good = [("read", expected["read"]),
            ("degraded_read", expected["degraded_read"])]
    assert check_pass("parity_io", good, expected=expected) == []
    image = bytearray(expected["degraded_read"])
    image[12345] ^= 0x01
    bad = [good[0], ("degraded_read", bytes(image))]
    failures = check_pass("parity_io", bad, expected=expected)
    assert len(failures) == 1 and "degraded_read" in failures[0]


def test_overwrites_reach_the_expected_image():
    inputs = make_inputs("parity_io", 0)
    image = expected_bytes(inputs)["degraded_read"]
    offset, data = inputs["overwrites"][-1]
    assert image[offset:offset + len(data)] == data
    assert len(image) == len(inputs["payload"])


# -- inputs -------------------------------------------------------------------


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_are_identical_for_the_same_seed(workload):
    assert make_inputs(workload, 7) == make_inputs(workload, 7)
    assert make_inputs(workload, 7) != make_inputs(workload, 8)


def test_seed_zero_tables_are_run_swift_tables():
    from repro.prototype import run_swift_table
    reference = load_reference("proto_tables", 0)
    rows = run_swift_table(sizes_mb=(3,), samples=2)
    for label, samples in rows.items():
        assert samples.samples == reference[f"table1/{label}"]["samples"]
