"""Schedule-perturbation harness: tie-break shuffles must not move metrics."""

import dataclasses

import pytest

from repro.check import (
    ScheduleRaceError,
    ScheduleTrace,
    assert_schedule_invariant,
    run_perturbed,
)
from repro.check.perturb import derive_tie_seeds
from repro.des import Environment
from repro.des.stats import OnlineStats
from repro.sim.model import SwiftSimModel
from repro.sim.workload import SimConfig


def _racy_scenario(tie_break_seed, trace):
    """Last-writer-wins at one timestamp: the textbook tie-break race."""
    env = Environment(tie_break_seed=tie_break_seed)
    trace.attach(env)
    box = {"last": 0.0}

    def writer(value):
        yield env.timeout(1.0)
        box["last"] = value

    env.process(writer(10.0))
    env.process(writer(20.0))
    env.run()
    return {"last": box["last"]}


def _clean_scenario(tie_break_seed, trace):
    env = Environment(tie_break_seed=tie_break_seed)
    trace.attach(env)
    stats = OnlineStats()

    def writer(value, delay):
        yield env.timeout(delay)
        stats.add(value)

    env.process(writer(10.0, 1.0))
    env.process(writer(20.0, 2.0))
    env.run()
    return {"mean": stats.mean, "count": stats.count}


def test_racy_scenario_diverges_and_is_localized():
    report = run_perturbed(_racy_scenario, permutations=8)
    assert not report.invariant
    divergence = report.divergences[0]
    assert divergence.metric_diffs["last"] == (20.0, 10.0)
    # The harness pins the first calendar slot where the schedules split.
    assert divergence.first_divergent_event is not None
    assert divergence.baseline_fingerprint != divergence.perturbed_fingerprint
    text = report.format()
    assert "tie-break race" in text
    assert "schedules diverge at event" in text


def test_clean_scenario_is_invariant():
    report = assert_schedule_invariant(_clean_scenario, permutations=8)
    assert report.invariant
    assert report.baseline_metrics == {"mean": 15.0, "count": 2}
    assert "bit-identical across 8" in report.format()


def test_assert_raises_on_divergence():
    with pytest.raises(ScheduleRaceError) as caught:
        assert_schedule_invariant(_racy_scenario, permutations=4)
    assert "tie-break race" in str(caught.value)


def test_trace_attach_is_idempotent():
    env = Environment()
    trace = ScheduleTrace()
    trace.attach(env)
    trace.attach(env)

    def ticker():
        for _ in range(3):
            yield env.timeout(1.0)

    env.process(ticker())
    env.run()
    # Init event, three timeouts and the completion: once each.
    assert len(trace.fingerprints) == 5


def test_seed_derivation_is_deterministic_and_distinct():
    seeds = derive_tie_seeds(0, 8)
    assert seeds == derive_tie_seeds(0, 8)
    assert len(set(seeds)) == 8
    assert seeds != derive_tie_seeds(1, 8)


def test_permutation_count_is_validated():
    with pytest.raises(ValueError):
        run_perturbed(_clean_scenario, permutations=0)


def test_end_to_end_model_is_schedule_invariant():
    # The acceptance bar: a full (scaled-down) Figure 3 run produces
    # bit-identical metrics across 8 seeded shuffles of every calendar tie.
    def scenario(tie_break_seed, trace):
        config = SimConfig(num_requests=40, warmup_requests=4,
                           tie_break_seed=tie_break_seed)
        model = SwiftSimModel(config)
        trace.attach(model.env)
        metrics = dataclasses.asdict(model.run())
        metrics.pop("config")
        return metrics

    report = assert_schedule_invariant(scenario, permutations=8)
    assert report.invariant
    assert report.baseline_metrics["completed"] > 0
