"""Engine and event-lifecycle tests for the DES kernel."""

from types import SimpleNamespace

import pytest

from repro.des import Environment, EmptySchedule, Event, Timeout


def test_environment_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_environment_custom_start_time():
    env = Environment(initial_time=5.0)
    assert env.now == 5.0


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(3.5)

    env.process(proc(env))
    env.run()
    assert env.now == 3.5


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_timeout_value_delivered():
    env = Environment()
    seen = []

    def proc(env):
        value = yield env.timeout(1.0, value="payload")
        seen.append(value)

    env.process(proc(env))
    env.run()
    assert seen == ["payload"]


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def proc(env):
        while True:
            yield env.timeout(1.0)

    env.process(proc(env))
    env.run(until=10.5)
    assert env.now == 10.5


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(2.0)
        return 42

    result = env.run(until=env.process(proc(env)))
    assert result == 42
    assert env.now == 2.0


def test_run_until_past_time_rejected():
    env = Environment(initial_time=10.0)
    with pytest.raises(ValueError):
        env.run(until=5.0)


def test_step_on_empty_schedule_raises():
    env = Environment()
    with pytest.raises(EmptySchedule):
        env.step()


def test_events_fire_in_time_order():
    env = Environment()
    order = []

    def waiter(env, delay, tag):
        yield env.timeout(delay)
        order.append(tag)

    env.process(waiter(env, 3.0, "c"))
    env.process(waiter(env, 1.0, "a"))
    env.process(waiter(env, 2.0, "b"))
    env.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fifo_by_schedule_order():
    env = Environment()
    order = []

    def waiter(env, tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in "abcd":
        env.process(waiter(env, tag))
    env.run()
    assert order == list("abcd")


def test_event_succeed_once_only():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(RuntimeError):
        event.succeed(2)


def test_event_fail_requires_exception():
    env = Environment()
    event = env.event()
    with pytest.raises(TypeError):
        event.fail("not an exception")


def test_unhandled_failed_event_raises_from_run():
    env = Environment()
    event = env.event()
    event.fail(ValueError("boom"))
    with pytest.raises(ValueError, match="boom"):
        env.run()


def test_defused_failed_event_is_silent():
    env = Environment()
    event = env.event()
    event.fail(ValueError("boom"))
    event.defuse()
    env.run()  # no raise


def test_event_value_before_trigger_raises():
    env = Environment()
    event = env.event()
    with pytest.raises(RuntimeError):
        _ = event.value
    with pytest.raises(RuntimeError):
        _ = event.ok


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(7.0)
    assert env.peek() == 7.0


def test_peek_empty_is_infinite():
    env = Environment()
    assert env.peek() == float("inf")


def test_all_of_waits_for_every_event():
    env = Environment()
    results = []

    def proc(env):
        t1 = env.timeout(1.0, "one")
        t2 = env.timeout(2.0, "two")
        values = yield env.all_of([t1, t2])
        results.append(sorted(values.values()))

    env.process(proc(env))
    env.run()
    assert results == [["one", "two"]]
    assert env.now == 2.0


def test_any_of_fires_on_first():
    env = Environment()
    results = []

    def proc(env):
        t1 = env.timeout(1.0, "fast")
        t2 = env.timeout(5.0, "slow")
        values = yield env.any_of([t1, t2])
        results.append(list(values.values()))

    env.process(proc(env))
    env.run(until=1.5)
    assert results == [["fast"]]


def test_all_of_empty_fires_immediately():
    env = Environment()
    condition = env.all_of([])
    assert condition.triggered
    assert condition.value == {}


def test_condition_propagates_failure():
    env = Environment()
    caught = []

    def failer(env):
        yield env.timeout(1.0)
        raise RuntimeError("inner")

    def proc(env):
        try:
            yield env.all_of([env.process(failer(env)), env.timeout(9.0)])
        except RuntimeError as exc:
            caught.append(str(exc))

    env.process(proc(env))
    env.run()
    assert caught == ["inner"]


def test_trigger_copies_another_events_outcome():
    env = Environment()
    source = env.event()
    mirror = env.event()
    source.callbacks.append(mirror.trigger)
    source.succeed("mirrored")
    env.run()
    assert mirror.value == "mirrored"


# -- cohort dispatch ----------------------------------------------------------
#
# Same-timestamp events normally skip the heap and drain from an
# append-ordered ready deque (see the Environment docstring).  The
# contract: dispatch order is bit-identical to the one-heap reference
# path (cohort_dispatch=False), and anything that must observe every
# event individually — a schedule monitor, a tie-break seed — disables
# the fast path and spills any pending cohort back into the heap.


def _mixed_workload(env, order):
    """Processes that exercise same-time fan-out, urgent events,
    resource hand-offs and future timeouts, recording dispatch order."""
    from repro.des import Resource

    resource = Resource(env, capacity=2)

    def holder(env, tag):
        for cycle in range(3):
            with resource.request() as grant:
                yield grant
                order.append((env.now, tag, cycle, "granted"))
                yield env.timeout(0.001 * ((cycle + tag) % 3))
            order.append((env.now, tag, cycle, "released"))

    def fanout(env):
        for cycle in range(4):
            events = [env.event() for _ in range(3)]
            for index, event in enumerate(events):
                event.succeed(index)
            yield env.all_of(events)
            order.append((env.now, "fanout", cycle))
            yield env.timeout(0.0005)

    def urgent_mixer(env):
        for cycle in range(4):
            normal = env.timeout(0.002)
            urgent = env.event()
            urgent._ok = True
            env.schedule(urgent, delay=0.002,
                         priority=env.PRIORITY_URGENT)
            yield env.all_of([normal, urgent])
            order.append((env.now, "urgent", cycle))

    for tag in range(5):
        env.process(holder(env, tag))
    env.process(fanout(env))
    env.process(urgent_mixer(env))


def _run_mixed(cohort):
    env = Environment(cohort_dispatch=cohort)
    order = []
    _mixed_workload(env, order)
    env.run()
    return order, env.now


def test_cohort_dispatch_matches_reference_order():
    assert _run_mixed(True) == _run_mixed(False)


def test_tie_break_seed_disables_cohort_fast_path():
    env = Environment(tie_break_seed=7)
    assert not env._schedule_fast
    env = Environment()
    assert env._schedule_fast
    env.tie_break_seed = 3
    assert not env._schedule_fast


def test_schedule_monitor_spills_pending_cohort():
    env = Environment()
    order = []

    def fanout(env):
        events = [env.event() for _ in range(4)]
        for index, event in enumerate(events):
            event.succeed(index)
        # The succeeded events sit in the ready cohort right now.
        assert env._ready
        seen = []
        env.attach(SimpleNamespace(
            on_schedule=lambda event, proc: seen.append(event)))
        # Attaching the monitor must have spilled them into the heap.
        assert not env._ready
        yield env.all_of(events)
        order.append([event.value for event in events])

    env.process(fanout(env))
    env.run()
    assert order == [[0, 1, 2, 3]]


def test_timeout_at_lands_on_exact_accumulated_float():
    env = Environment()
    steps = [0.1, 0.2, 0.30000000000000004, 0.7]

    def reference(env):
        for step in steps:
            yield env.timeout(step)
        return env.now

    ref = env.process(reference(env))
    env.run()
    expected = ref.value

    env2 = Environment()
    when = env2.now
    for step in steps:
        when += step
    fired = []
    env2.timeout_at(when).callbacks.append(
        lambda event: fired.append(env2.now))
    env2.run()
    assert fired == [expected]


def test_timeout_at_rejects_past():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        env.timeout_at(0.5)

    env.process(proc(env))
    with pytest.raises(ValueError):
        env.run()


def test_span_coalescing_gate_follows_observers():
    env = Environment()
    assert env.span_coalescing
    probe = lambda *args, **kwargs: None
    for hook in ("on_transfer", "on_alias", "on_step"):
        observer = SimpleNamespace(**{hook: probe})
        env.attach(observer)
        assert not env.span_coalescing, hook
        env.detach(observer)
        assert env.span_coalescing, hook
    env.tie_break_seed = 7
    assert not env.span_coalescing
    env.tie_break_seed = None
    assert env.span_coalescing
    assert not Environment(cohort_dispatch=False).span_coalescing


def test_attach_is_idempotent_by_identity():
    env = Environment()
    seen = []
    observer = SimpleNamespace(on_step=lambda when, event: seen.append(when))
    env.attach(observer)
    env.attach(observer)
    env.timeout(1.0)
    env.run()
    assert seen == [1.0]
    env.detach(observer)
    assert env._step_hooks == [] and env._unmonitored


def test_missing_and_none_hooks_are_not_attached():
    env = Environment()
    env.attach(SimpleNamespace(on_step=None, on_transfer=None))
    env.attach(object())
    assert env._unmonitored and env.span_coalescing
    assert env._step_hooks == [] and env._transfer_hooks == []
    env.detach(SimpleNamespace())  # never attached: no-op
