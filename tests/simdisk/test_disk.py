"""Disk model: service times, queueing, utilization."""

import pytest

from repro.des import Environment, Interrupt, RandomStream
from repro.simdisk import DISK_CATALOG, Disk, DiskSpec


def run_access(env, disk, **kwargs):
    result = {}

    def proc(env):
        result["time"] = yield from disk.access(**kwargs)

    env.process(proc(env))
    env.run()
    return result["time"]


def test_spec_validation():
    with pytest.raises(ValueError):
        DiskSpec("bad", -1.0, 0.008, 2.5e6)
    with pytest.raises(ValueError):
        DiskSpec("bad", 0.016, 0.008, 0.0)
    with pytest.raises(ValueError):
        DiskSpec("bad", 0.016, 0.008, 2.5e6, capacity_bytes=0)


def test_paper_states_37ms_for_32kb_on_m2372k():
    # §5.2: "transferring 32 kilobytes required about 37 milliseconds on
    # the average" (seek 16 + rotation 8.3 + 32768/2.5MB/s = 13.1 -> ~37ms).
    spec = DISK_CATALOG["Fujitsu M2372K"]
    assert spec.mean_access_time(32 * 1024) == pytest.approx(0.0374, abs=0.0005)


def test_deterministic_access_time_matches_spec():
    env = Environment()
    spec = DISK_CATALOG["Fujitsu M2372K"]
    disk = Disk(env, spec)  # no stream: expected values
    elapsed = run_access(env, disk, nbytes=32 * 1024)
    assert elapsed == pytest.approx(spec.mean_access_time(32 * 1024))


def test_multiblock_pays_positioning_per_block():
    env = Environment()
    spec = DISK_CATALOG["Fujitsu M2372K"]
    disk = Disk(env, spec)
    elapsed = run_access(env, disk, nbytes=4096, blocks=4)
    assert elapsed == pytest.approx(4 * spec.mean_access_time(4096))


def test_sequential_pays_positioning_once():
    env = Environment()
    spec = DISK_CATALOG["Fujitsu M2372K"]
    disk = Disk(env, spec)
    elapsed = run_access(env, disk, nbytes=4096, blocks=4, sequential=True)
    expected = (spec.avg_seek_s + spec.avg_rotation_s
                + 4 * spec.transfer_time(4096))
    assert elapsed == pytest.approx(expected)


def test_random_positioning_bounded_by_uniform_range():
    env = Environment()
    spec = DISK_CATALOG["Fujitsu M2372K"]
    disk = Disk(env, spec, stream=RandomStream(123))
    for _ in range(200):
        draw = disk.draw_positioning_time()
        assert 0.0 <= draw <= 2 * (spec.avg_seek_s + spec.avg_rotation_s)


def test_concurrent_requests_queue_on_spindle():
    env = Environment()
    spec = DISK_CATALOG["Fujitsu M2372K"]
    disk = Disk(env, spec)
    finish_times = []

    def user(env):
        yield from disk.access(nbytes=32 * 1024)
        finish_times.append(env.now)

    env.process(user(env))
    env.process(user(env))
    env.run()
    one = spec.mean_access_time(32 * 1024)
    assert finish_times == pytest.approx([one, 2 * one])


def test_multiblock_holds_resource_against_competitor():
    # The paper: "Multiblock requests are allowed to complete before the
    # resource is relinquished."
    env = Environment()
    spec = DISK_CATALOG["Fujitsu M2372K"]
    disk = Disk(env, spec)
    order = []

    def big(env):
        yield from disk.access(nbytes=4096, blocks=8)
        order.append("big")

    def small(env):
        yield env.timeout(0.001)  # arrives while 'big' is in progress
        yield from disk.access(nbytes=4096)
        order.append("small")

    env.process(big(env))
    env.process(small(env))
    env.run()
    assert order == ["big", "small"]


def test_utilization_full_when_saturated():
    env = Environment()
    disk = Disk(env, DISK_CATALOG["Fujitsu M2372K"])

    def user(env):
        for _ in range(10):
            yield from disk.access(nbytes=32 * 1024)

    env.process(user(env))
    env.run()
    assert disk.utilization() == pytest.approx(1.0)
    assert disk.blocks_served == 10
    assert disk.bytes_served == 10 * 32 * 1024


def test_access_argument_validation():
    env = Environment()
    disk = Disk(env, DISK_CATALOG["Fujitsu M2372K"])
    with pytest.raises(ValueError):
        list(disk.access(nbytes=4096, blocks=0))
    with pytest.raises(ValueError):
        list(disk.access(nbytes=-1))


def test_catalog_has_all_figure_disks():
    from repro.simdisk import FIGURE_5_6_DISKS
    for name in FIGURE_5_6_DISKS:
        assert name in DISK_CATALOG


def _interrupted_access(victim_first: bool):
    """Interrupt one access at t=10 ms, queued or holding the spindle.

    Returns (disk, log) after the run; a second access ("other", two
    blocks) shares the spindle.
    """
    env = Environment()
    disk = Disk(env, DISK_CATALOG["Fujitsu M2372K"])  # deterministic
    log = []

    def other(env):
        yield from disk.access(32 * 1024, blocks=2)
        log.append(("other done", env.now))

    def victim(env):
        try:
            yield from disk.access(32 * 1024)
        except Interrupt:
            log.append(("interrupted", env.now, disk.queue_length,
                        disk.resource.count))

    first, second = (victim, other) if victim_first else (other, victim)
    processes = [env.process(first(env)), env.process(second(env))]
    victim_process = processes[0] if victim_first else processes[1]

    def interrupter(env):
        yield env.timeout(0.01)
        victim_process.interrupt("cancel")

    env.process(interrupter(env))
    env.run()
    return disk, log


def test_interrupt_while_queued_withdraws_the_request():
    disk, log = _interrupted_access(victim_first=False)
    block = DISK_CATALOG["Fujitsu M2372K"].mean_access_time(32 * 1024)
    # Withdrawn at once; the holder keeps the spindle undisturbed.
    assert log[0] == ("interrupted", 0.01, 0, 1)
    assert log[1] == ("other done", pytest.approx(2 * block))
    assert disk.blocks_served == 2
    assert disk.resource.count == 0 and disk.queue_length == 0
    assert disk.monitor.busy_time == pytest.approx(2 * block)


def test_interrupt_while_holding_releases_the_spindle():
    disk, log = _interrupted_access(victim_first=True)
    block = DISK_CATALOG["Fujitsu M2372K"].mean_access_time(32 * 1024)
    # Released at the interrupt; the waiter is granted the spindle then.
    assert log[0] == ("interrupted", 0.01, 0, 1)
    assert log[1] == ("other done", pytest.approx(0.01 + 2 * block))
    assert disk.blocks_served == 2
    assert disk.resource.count == 0 and disk.queue_length == 0
    assert disk.monitor._busy_since is None
    assert disk.monitor.busy_time == pytest.approx(0.01 + 2 * block)


def test_interrupt_while_holding_alone_goes_idle():
    env = Environment()
    disk = Disk(env, DISK_CATALOG["Fujitsu M2372K"])

    def victim(env):
        try:
            yield from disk.access(32 * 1024, blocks=4)
        except Interrupt:
            pass

    process = env.process(victim(env))

    def interrupter(env):
        yield env.timeout(0.01)
        process.interrupt()

    env.process(interrupter(env))
    env.run()
    assert disk.resource.count == 0
    assert disk.monitor._busy_since is None
    assert disk.monitor.busy_time == pytest.approx(0.01)
    assert disk.blocks_served == 0
