"""Process composition without callback state machines.

The kernel once had a second kind of process, hand-written callback
state machines, for its hottest loops.  Generator processes now carry
the same event savers, and these tests pin the guarantees that kind
gave:

* immediate start (``env.process(gen, immediate=True)``) runs a
  process's first segment inside the caller's dispatch;
* inline completion: with no monitor attached, a finishing process
  resumes its waiters without a completion event;
* :meth:`~repro.des.resources.Resource.hold` contends exactly like a
  ``with resource.request()`` hold;
* a join is a parent yielding each of its children in turn.

The test names keep that history's vocabulary: a "callback process" is
an immediately started process, "adopt/join" is a parent yielding its
children, and a "state" is one segment of a process.
"""

from types import SimpleNamespace

import pytest

from repro.des import Environment, Interrupt, Resource, UtilizationMonitor


def stepper(env, log):
    """Waits two timeouts, then finishes with a value."""
    log.append(("start", env.now))
    yield env.timeout(1.0)
    log.append(("mid", env.now))
    yield env.timeout(2.0)
    log.append(("end", env.now))
    return "done"


def sleeper(env, delay, value=None):
    yield env.timeout(delay)
    return value


def test_states_advance_through_timeouts():
    env = Environment()
    log = []
    process = env.process(stepper(env, log), immediate=True)
    env.run()
    assert log == [("start", 0.0), ("mid", 1.0), ("end", 3.0)]
    assert not process.is_alive
    assert process.value == "done"


def test_generator_process_can_wait_on_callback_process():
    env = Environment()
    results = []

    def waiter(env, target):
        value = yield target
        results.append((value, env.now))

    target = env.process(stepper(env, []), immediate=True)
    env.process(waiter(env, target))
    env.run()
    assert results == [("done", 3.0)]


def test_callback_process_can_wait_on_generator_process():
    env = Environment()
    log = []

    def parent(env):
        value = yield env.process(sleeper(env, 2.5, "child-done"))
        log.append((value, env.now))

    env.process(parent(env), immediate=True)
    env.run()
    assert log == [("child-done", 2.5)]


def test_start_order_follows_creation_order():
    env = Environment()
    log = []

    def starter(env, name):
        log.append(name)
        yield env.timeout(0.0)

    env.process(starter(env, "first"))
    env.process(starter(env, "second"))
    assert log == []  # deferred: both start from the calendar
    env.run()
    assert log == ["first", "second"]


def test_immediate_start_runs_inside_constructor():
    env = Environment()
    log = []
    env.process(stepper(env, log), immediate=True)
    assert log == [("start", 0.0)]  # before env.run()
    env.run()
    assert log == [("start", 0.0), ("mid", 1.0), ("end", 3.0)]


def test_hold_matches_generator_hold_timing_and_queueing():
    """A Resource.hold and a with-block hold contend identically."""

    def run(order):
        env = Environment()
        resource = Resource(env, capacity=1)
        monitor = UtilizationMonitor(env)
        log = []

        def with_block_hold(env):
            with resource.request() as grant:
                yield grant
                monitor.busy()
                yield env.timeout(1.0)
                if resource.queue_length == 0:
                    monitor.idle()
            log.append(("with", env.now))

        def token_hold(env):
            yield from resource.hold(1.0, monitor)
            log.append(("hold", env.now))

        for kind in order:
            env.process(with_block_hold(env) if kind == "with"
                        else token_hold(env))
        env.run()
        return log, monitor.busy_time, env.now

    log, busy, now = run(["with", "hold"])
    assert log == [("with", 1.0), ("hold", 2.0)]
    assert (busy, now) == (2.0, 2.0)
    log, busy, now = run(["hold", "with"])
    assert log == [("hold", 1.0), ("with", 2.0)]
    assert (busy, now) == (2.0, 2.0)


def test_hold_priority_orders_grants():
    env = Environment()
    resource = Resource(env, capacity=1)
    log = []

    def holder(env, name, priority):
        yield from resource.hold(1.0, priority=priority)
        log.append(name)

    env.process(holder(env, "low", 5.0))
    env.process(holder(env, "high", 1.0))
    env.process(holder(env, "mid", 3.0))
    env.run()
    # First grant is FIFO (uncontended when "low" requested); the queue
    # then orders by priority.
    assert log == ["low", "high", "mid"]
    assert resource.count == 0 and resource.queue_length == 0


def test_adopt_join_counts_children():
    env = Environment()
    finished = []

    def parent(env):
        children = [env.process(sleeper(env, delay), immediate=True)
                    for delay in (3.0, 1.0, 2.0)]
        for child in children:
            yield child
        finished.append(env.now)

    env.process(parent(env))
    env.run()
    assert finished == [3.0]


def test_join_with_no_children_runs_inline():
    env = Environment()
    log = []

    def parent(env):
        for child in []:
            yield child
        log.append(env.now)
        return "joined"

    process = env.process(parent(env), immediate=True)
    # Started and finished inside the constructor: no event at all.
    assert log == [0.0]
    assert process.processed and process.value == "joined"


def test_adopting_finished_child_does_not_block_join():
    env = Environment()
    log = []

    def early(env):
        return "early"
        yield  # pragma: no cover - makes this a generator

    child = env.process(early(env), immediate=True)
    assert child.processed  # finished before anything ran

    def parent(env):
        yield env.timeout(1.0)
        value = yield child
        log.append((value, env.now))

    env.process(parent(env))
    env.run()
    assert log == [("early", 1.0)]


def test_state_exception_fails_process_and_propagates_to_waiter():
    env = Environment()
    caught = []

    def exploder(env):
        yield env.timeout(1.0)
        raise ValueError("state failed")

    def waiter(env, target):
        try:
            yield target
        except ValueError as exc:
            caught.append(str(exc))

    env.process(waiter(env, env.process(exploder(env), immediate=True)))
    env.run()
    assert caught == ["state failed"]


def test_unwaited_failure_raises_from_run():
    env = Environment()

    def exploder(env):
        raise RuntimeError("nobody caught this")
        yield  # pragma: no cover - makes this a generator

    env.process(exploder(env), immediate=True)
    with pytest.raises(RuntimeError, match="nobody caught this"):
        env.run()


def test_child_failure_fails_joining_parent():
    env = Environment()
    caught = []

    def bad_child(env):
        yield env.timeout(1.0)
        raise ValueError("child failed")

    def parent(env):
        children = [env.process(bad_child(env), immediate=True),
                    env.process(sleeper(env, 2.0), immediate=True)]
        for child in children:
            yield child
        raise AssertionError("join finished despite child failure")

    def waiter(env, target):
        try:
            yield target
        except ValueError as exc:
            caught.append((str(exc), env.now))

    env.process(waiter(env, env.process(parent(env))))
    env.run()
    assert caught == [("child failed", 1.0)]


def test_interrupt_delivers_and_default_handler_fails_process():
    env = Environment()
    sleeping = env.process(sleeper(env, 100.0), immediate=True)

    def interrupter(env):
        yield env.timeout(1.0)
        sleeping.interrupt("wake up")

    env.process(interrupter(env))
    with pytest.raises(Interrupt):
        env.run()
    assert env.now == 1.0
    assert not sleeping.is_alive


def test_interrupt_handler_can_recover():
    env = Environment()
    log = []

    def recovering(env):
        try:
            yield env.timeout(100.0)
        except Interrupt as interrupt:
            log.append((interrupt.cause, env.now))
            return "recovered"

    sleeping = env.process(recovering(env), immediate=True)

    def interrupter(env):
        yield env.timeout(1.0)
        sleeping.interrupt("wake up")

    env.process(interrupter(env))
    env.run()
    assert log == [("wake up", 1.0)]
    assert sleeping.value == "recovered"


def test_silent_completion_still_observable_as_processed():
    env = Environment()
    quiet = env.process(sleeper(env, 1.0, "quiet"), immediate=True)
    env.run()
    # Nobody waited and no monitors were attached: no completion event
    # was scheduled, but the processed state and value are intact.
    assert env._eid == 1  # the timeout alone
    assert quiet.processed
    assert quiet.value == "quiet"


def test_completion_event_scheduled_when_monitored():
    env = Environment()
    seen = []
    env.attach(SimpleNamespace(
        on_step=lambda when, event: seen.append(event)))
    watched = env.process(sleeper(env, 0.0, "watched"), immediate=True)
    env.run()
    assert watched in seen  # completion went through the calendar
    assert watched.value == "watched"


def test_active_process_is_set_during_states():
    env = Environment()
    observed = []

    def child(env):
        observed.append(("child", env.active_process))
        yield env.timeout(1.0)
        observed.append(("child", env.active_process))

    def parent(env):
        observed.append(("parent", env.active_process))
        kid = env.process(child(env), immediate=True)
        # The immediate start ran inside this segment and handed the
        # active process back.
        observed.append(("parent", env.active_process))
        yield kid
        observed.append(("parent", env.active_process))
        return kid

    parent_process = env.process(parent(env))
    env.run()
    kid = parent_process.value
    assert observed == [("parent", parent_process), ("child", kid),
                        ("parent", parent_process), ("child", kid),
                        ("parent", parent_process)]
    assert env.active_process is None
