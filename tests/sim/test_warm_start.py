"""Warm-started sweeps must reproduce cold-built runs byte for byte.

``SwiftSimModel.warm_reset`` rewinds a built deployment in place —
engine calendar, resource queues, utilization windows, random streams,
counters — instead of re-constructing the object graph for every grid
point.  These tests pin the contract: a warm-started run is
indistinguishable from a cold one, for every field of the result, even
after a saturated run that hit the horizon guard and left suspended
processes behind (whose generators must be safe to reap at any time).
"""

import dataclasses
import gc
from types import SimpleNamespace

import pytest

from repro.des import Process
from repro.sim.cache import RUN_ONLY_FIELDS, deployment_key
from repro.sim.model import SwiftSimModel
from repro.sim.sweep import find_max_sustainable, load_sweep
from repro.sim.trace import TraceRecord
from repro.sim.workload import SimConfig

BASE = SimConfig(num_requests=24, warmup_requests=4)


def test_warm_sweep_matches_cold_sweep():
    rates = [2.0, 4.0, 8.0, 16.0]
    cold = load_sweep(BASE, rates)
    warm = load_sweep(BASE, rates, warm_start=True)
    assert warm == cold


def test_warm_find_max_matches_cold():
    cold = find_max_sustainable(BASE, iterations=3)
    warm = find_max_sustainable(BASE, iterations=3, warm_start=True)
    assert warm == cold


def test_saturated_then_light_matches_cold():
    # A rate of 500/s saturates the fleet, so the first run stops at the
    # horizon guard with requests still in flight; the light run that
    # follows reuses the same components.  Regression pin for orphaned
    # generators: had the leftover processes ``finally`` clauses, they
    # would fire mid-next-run at GC-determined moments and skew the
    # utilization accounting.
    rates = [500.0, 2.0]
    cold = load_sweep(BASE, rates)
    warm = load_sweep(BASE, rates, warm_start=True)
    assert warm == cold


def test_repeated_warm_resets_stay_identical():
    config = dataclasses.replace(BASE, arrival_rate=6.0)
    reference = SwiftSimModel(config).run()
    model = SwiftSimModel(config)
    for _ in range(3):
        assert model.run() == reference
        model.warm_reset(config)
    assert model.run() == reference


def test_warm_callback_deployment_matches_cold_and_generator():
    # The fast path holds pooled timeouts and token grants at horizon
    # stop; warm_reset must rewind all of it.  The warm rerun has to
    # match both its own cold build and the fully expanded reference
    # (a step monitor switches every event saver off).
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
    # The orphaned-process case: a saturated run stops at the horizon
    # guard with processes still holding spindles and CPUs (token
    # grants, no request objects), then a light run reuses the same
    # deployment.
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


def _resources(model) -> list:
    resources = [model.ring.cable]
    resources += [client.cpu for client in model.clients]
    for host, disk in model.agents:
        resources += [host.cpu, disk.resource]
    return resources


def _run_state(model) -> tuple:
    """Every holder, waiter and monitor of the deployment, and the calendar."""
    monitors = [model.ring.monitor] + [disk.monitor
                                       for _, disk in model.agents]
    env = model.env
    return ([(list(r.users), list(r._waiting)) for r in _resources(model)],
            [(m._busy_since, m._busy_total) for m in monitors],
            (env._eid, list(env._queue), list(env._ready)))


def _suspended_processes(model) -> list:
    """Every process waiting on the calendar or a resource queue, and
    every process waiting on one of those."""
    env = model.env
    pending = [entry[2] for entry in env._queue] + list(env._ready)
    for resource in _resources(model):
        pending += [entry[2] for entry in resource._waiting]
    found = {}
    while pending:
        for callback in pending.pop().callbacks or ():
            process = getattr(callback, "__self__", None)
            if isinstance(process, Process) and id(process) not in found:
                found[id(process)] = process
                pending.append(process)
    return list(found.values())


def test_collecting_a_dead_runs_generators_changes_nothing():
    # warm_reset needs no gc.collect() fence: a horizon-stopped run
    # leaves suspended generators behind, and reaping them must run no
    # cleanup against the deployment.  Clearing the calendar makes some
    # unreachable; the rest stay reachable through resource queues
    # until warm_reset, so they are closed by hand — closing is what
    # the collector does to a generator it reaps.
    config = dataclasses.replace(BASE, arrival_rate=500.0)
    model = SwiftSimModel(config)
    result = model.run()
    assert result.completed < config.num_requests  # horizon-stopped
    processes = _suspended_processes(model)
    assert len(processes) > 10
    model.env.reset()
    before = _run_state(model)
    assert any(users or waiting for users, waiting in before[0])
    gc.collect()
    assert _run_state(model) == before
    for process in processes:
        process._generator.close()
    assert _run_state(model) == before


def test_warm_reset_returns_same_object():
    model = SwiftSimModel(BASE)
    model.run()
    assert model.warm_reset(BASE) is model


def test_deployment_key_ignores_run_only_fields():
    key = deployment_key(BASE, version="v")
    for field, value in [("arrival_rate", 99.0), ("read_fraction", 0.5),
                        ("num_requests", 1000), ("warmup_requests", 10),
                        ("transfer_unit", 4096), ("request_size", 1 << 16),
                        ("tie_break_seed", 7), ("disk_scheduling", "edf"),
                        ("deadline_s", 1.0), ("realtime_fraction", 0.25)]:
        changed = dataclasses.replace(BASE, **{field: value})
        assert deployment_key(changed, version="v") == key, field


def test_deployment_key_tracks_deployment_fields():
    key = deployment_key(BASE, version="v")
    for field, value in [("num_disks", 4), ("seed", 1), ("num_clients", 2),
                        ("ring_bits_per_second", 1e8), ("host_mips", 25.0)]:
        changed = dataclasses.replace(BASE, **{field: value})
        assert deployment_key(changed, version="v") != key, field


def test_run_only_fields_are_real_config_fields():
    names = {f.name for f in dataclasses.fields(SimConfig)}
    assert RUN_ONLY_FIELDS <= names


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


def test_host_reset_refuses_live_interfaces():
    # Transmitter processes die with the old engine run, so a Host wired
    # to a Medium cannot be warm-started; the §5 model keeps its hosts
    # interface-free and drives the ring through explicit sends.
    from repro.des import Environment
    from repro.simnet.host import Host
    from repro.simnet.medium import Medium

    env = Environment()
    host = Host(env, "h")
    host.attach(Medium(env, "wire"))
    with pytest.raises(RuntimeError, match="interface"):
        host.reset()


def test_cohort_dispatch_off_is_bit_identical():
    # The engine's one-heap reference scheduler and the cohort fast path
    # must agree on every result field (the bench_kernel_batched A/B).
    cold = SwiftSimModel(BASE).run()
    reference = SwiftSimModel(BASE, cohort_dispatch=False).run()
    assert cold == reference
