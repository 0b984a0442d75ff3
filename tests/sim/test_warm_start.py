"""``SwiftSimModel.warm_reset`` must reproduce cold-built runs byte for byte.

``warm_reset(config)`` rebuilds the model in place with the storage
factory and dispatch mode it was built with.  These tests pin the
contract: a re-armed model's run is indistinguishable from a cold one,
for every field of the result, including after a saturated run that
stopped at the horizon guard.
"""

import dataclasses
from types import SimpleNamespace

import pytest

from repro.sim.model import SwiftSimModel
from repro.sim.sweep import load_sweep
from repro.sim.trace import TraceRecord
from repro.sim.workload import SimConfig
from repro.simdisk import RaidArray

BASE = SimConfig(num_requests=24, warmup_requests=4)


def _rearmed_sweep(rates):
    # One model for the whole grid, re-armed with warm_reset per rate.
    model = SwiftSimModel(dataclasses.replace(BASE, arrival_rate=rates[0]))
    results = [model.run()]
    for rate in rates[1:]:
        model.warm_reset(dataclasses.replace(BASE, arrival_rate=rate))
        results.append(model.run())
    return results


def test_warm_sweep_matches_cold_sweep():
    rates = [2.0, 4.0, 8.0, 16.0]
    assert _rearmed_sweep(rates) == load_sweep(BASE, rates)


def test_saturated_then_light_matches_cold():
    # A rate of 500/s saturates the fleet, so the first run stops at the
    # horizon guard with requests still in flight; the light run that
    # follows re-arms the same model.
    rates = [500.0, 2.0]
    assert _rearmed_sweep(rates) == load_sweep(BASE, rates)


def test_warm_reset_run_equals_cold_run():
    # A different rate, a custom storage factory and the one-heap
    # scheduler: the re-armed model keeps the build options and takes
    # the new config.
    def raid(env, index, streams):
        return RaidArray(env, num_members=4,
                         stream=streams.stream(f"raid/{index}"))

    light = dataclasses.replace(BASE, arrival_rate=2.0)
    heavy = dataclasses.replace(BASE, arrival_rate=9.0)
    model = SwiftSimModel(light, storage_factory=raid, cohort_dispatch=False)
    model.run()
    cold = SwiftSimModel(heavy, storage_factory=raid,
                         cohort_dispatch=False).run()
    assert model.warm_reset(heavy).run() == cold


def test_repeated_warm_resets_stay_identical():
    config = dataclasses.replace(BASE, arrival_rate=6.0)
    reference = SwiftSimModel(config).run()
    model = SwiftSimModel(config)
    for _ in range(3):
        assert model.run() == reference
        model.warm_reset(config)
    assert model.run() == reference


def test_warm_callback_deployment_matches_cold_and_generator():
    # The re-armed run has to match both its own cold build and the
    # fully expanded reference (a step monitor switches every event
    # saver off).
    config = dataclasses.replace(BASE, arrival_rate=6.0)
    expanded = SwiftSimModel(config)
    expanded.env.attach(SimpleNamespace(on_step=lambda when, event: None))
    reference = expanded.run()
    assert SwiftSimModel(config).run() == reference
    model = SwiftSimModel(config)
    for _ in range(3):
        assert model.run() == reference
        model.warm_reset(config)
    assert model.run() == reference


def test_warm_saturated_callback_sweep_matches_cold():
    # A saturated run stops at the horizon guard with processes still
    # holding spindles and CPUs; a light run re-arms the same model.
    rates = [500.0, 2.0]
    def sweep(warm):
        results = []
        model = None
        for rate in rates:
            config = dataclasses.replace(BASE, arrival_rate=rate)
            if warm and model is not None:
                model.warm_reset(config)
            else:
                model = SwiftSimModel(config)
            results.append(model.run())
        return results
    assert sweep(warm=True) == sweep(warm=False)


def test_warm_reset_returns_same_object():
    model = SwiftSimModel(BASE)
    model.run()
    assert model.warm_reset(BASE) is model


def test_warm_reset_rejects_trace_replays():
    trace = [TraceRecord(time_s=0.0, is_read=True)]
    model = SwiftSimModel(BASE, trace=trace)
    with pytest.raises(RuntimeError, match="trace"):
        model.warm_reset(BASE)


def test_warm_reset_reapplies_tie_break_seed():
    model = SwiftSimModel(BASE)
    model.run()
    perturbed = dataclasses.replace(BASE, tie_break_seed=3)
    model.warm_reset(perturbed)
    assert model.env.tie_break_seed == 3
    model.warm_reset(BASE)
    assert model.env.tie_break_seed is None


def test_cohort_dispatch_off_is_bit_identical():
    # The engine's one-heap reference scheduler and the cohort fast path
    # must agree on every result field (the bench_kernel_batched A/B).
    cold = SwiftSimModel(BASE).run()
    reference = SwiftSimModel(BASE, cohort_dispatch=False).run()
    assert cold == reference
