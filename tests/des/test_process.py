"""Process semantics: returns, exceptions, interrupts, waiting on processes."""

from types import SimpleNamespace

import pytest

from repro.des import Environment, Interrupt


def test_process_return_value_is_event_value():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        return "result"

    process = env.process(proc(env))
    env.run()
    assert process.value == "result"
    assert not process.is_alive


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(TypeError):
        env.process(lambda: None)


def test_process_waiting_on_process():
    env = Environment()
    log = []

    def child(env):
        yield env.timeout(2.0)
        return "child-done"

    def parent(env):
        result = yield env.process(child(env))
        log.append(result)

    env.process(parent(env))
    env.run()
    assert log == ["child-done"]
    assert env.now == 2.0


def test_process_exception_propagates_to_waiter():
    env = Environment()
    caught = []

    def child(env):
        yield env.timeout(1.0)
        raise ValueError("child failed")

    def parent(env):
        try:
            yield env.process(child(env))
        except ValueError as exc:
            caught.append(str(exc))

    env.process(parent(env))
    env.run()
    assert caught == ["child failed"]


def test_unwaited_process_exception_surfaces_in_run():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        raise KeyError("unhandled")

    env.process(proc(env))
    with pytest.raises(KeyError):
        env.run()


def test_interrupt_delivers_cause():
    env = Environment()
    causes = []

    def victim(env):
        try:
            yield env.timeout(100.0)
        except Interrupt as interrupt:
            causes.append(interrupt.cause)

    def attacker(env, victim_process):
        yield env.timeout(1.0)
        victim_process.interrupt("stop now")

    victim_process = env.process(victim(env))
    env.process(attacker(env, victim_process))
    env.run(until=victim_process)
    assert causes == ["stop now"]
    assert env.now == 1.0


def test_interrupt_dead_process_is_error():
    env = Environment()

    def quick(env):
        yield env.timeout(0.1)

    process = env.process(quick(env))
    env.run()
    with pytest.raises(RuntimeError):
        process.interrupt()


def test_process_cannot_interrupt_itself():
    env = Environment()
    errors = []

    def selfish(env):
        try:
            env.active_process.interrupt()
        except RuntimeError as exc:
            errors.append(str(exc))
        yield env.timeout(0)

    env.process(selfish(env))
    env.run()
    assert len(errors) == 1


def test_interrupted_process_can_continue():
    env = Environment()
    log = []

    def victim(env):
        try:
            yield env.timeout(10.0)
        except Interrupt:
            log.append(("interrupted", env.now))
        yield env.timeout(5.0)
        log.append(("finished", env.now))

    def attacker(env, victim_process):
        yield env.timeout(2.0)
        victim_process.interrupt()

    victim_process = env.process(victim(env))
    env.process(attacker(env, victim_process))
    env.run()
    assert log == [("interrupted", 2.0), ("finished", 7.0)]


def test_yield_non_event_is_error():
    env = Environment()

    def bad(env):
        yield "not an event"

    env.process(bad(env))
    with pytest.raises(RuntimeError, match="non-event"):
        env.run()


def test_yield_already_processed_event_resumes_immediately():
    env = Environment()
    log = []

    def proc(env):
        done = env.event()
        done.succeed("early")
        yield env.timeout(1.0)
        # 'done' was processed during the timeout; yielding it must not hang.
        value = yield done
        log.append((value, env.now))

    env.process(proc(env))
    env.run()
    assert log == [("early", 1.0)]


def test_active_process_visible_during_step():
    env = Environment()
    seen = []

    def proc(env):
        seen.append(env.active_process)
        yield env.timeout(0)

    process = env.process(proc(env))
    env.run()
    assert seen == [process]
    assert env.active_process is None


def test_two_processes_interleave():
    env = Environment()
    log = []

    def ticker(env, name, period):
        for _ in range(3):
            yield env.timeout(period)
            log.append((name, env.now))

    env.process(ticker(env, "fast", 1.0))
    env.process(ticker(env, "slow", 2.0))
    env.run()
    # At t=2.0 both fire; 'slow' scheduled its timeout first (at t=0) so it
    # is processed first -- ties break by scheduling order.
    assert log == [
        ("fast", 1.0), ("slow", 2.0), ("fast", 2.0),
        ("fast", 3.0), ("slow", 4.0), ("slow", 6.0),
    ]


def test_immediate_process_starts_in_the_callers_dispatch():
    env = Environment()
    log = []

    def child(env):
        log.append(("child starts", env.now))
        yield env.timeout(1.0)

    def parent(env):
        yield env.timeout(2.0)
        before = env._eid
        env.process(child(env), immediate=True)
        log.append(("parent continues", env.now))
        # The child's timeout is the only event: no initialisation event.
        assert env._eid - before == 1
        yield env.timeout(0.0)

    env.process(parent(env))
    env.run()
    assert log == [("child starts", 2.0), ("parent continues", 2.0)]


def _completion_events(monitored: bool):
    """(value, time, events scheduled between yield and resume)."""
    env = Environment()
    seen = []
    steps = []
    if monitored:
        env.attach(SimpleNamespace(
            on_step=lambda when, event: steps.append(event)))

    def child(env):
        yield env.timeout(1.0)
        return "ok"

    def parent(env):
        proc = env.process(child(env), immediate=True)
        before = env._eid
        value = yield proc
        seen.append((value, env.now, env._eid - before))
        return proc

    parent_process = env.process(parent(env))
    env.run()
    return seen, parent_process.value in steps


def test_inline_completion_resumes_waiter_without_an_event():
    seen, completion_popped = _completion_events(monitored=False)
    assert seen == [("ok", 1.0, 0)]
    assert not completion_popped


def test_monitored_completion_goes_through_the_calendar():
    seen, completion_popped = _completion_events(monitored=True)
    assert seen == [("ok", 1.0, 1)]
    assert completion_popped


def test_run_until_process_stops_from_the_calendar():
    # The stop callback is never run inline: every other waiter of the
    # event that finished the process still resumes before run() returns.
    env = Environment()
    gate = env.event()
    resumed = []

    def target(env):
        yield gate
        return "stop"

    def bystander(env):
        yield gate
        resumed.append(env.now)

    def opener(env):
        yield env.timeout(1.0)
        gate.succeed()

    proc = env.process(target(env))
    env.process(bystander(env))
    env.process(opener(env))
    assert env.run(until=proc) == "stop"
    assert resumed == [1.0]
