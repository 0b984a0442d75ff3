"""Sweeps and figure series (reduced sizes for test speed)."""

import dataclasses

import pytest

import repro.sim.parallel
import repro.sim.sweep
from repro.sim import (
    SimConfig,
    figure3_series,
    figure4_series,
    figure5_series,
    find_max_sustainable,
    load_sweep,
)
from repro.sim.validation import sustainable_rate_bound
from repro.simdisk import DISK_CATALOG, Disk, DiskSpec, RaidArray

KB = 1 << 10
MB = 1 << 20


def small_config(**overrides):
    defaults = dict(num_disks=8, transfer_unit=32 * KB, request_size=1 * MB,
                    num_requests=100, warmup_requests=10, seed=4)
    defaults.update(overrides)
    return SimConfig(**defaults)


def test_load_sweep_monotone_response():
    results = load_sweep(small_config(), [2.0, 6.0, 10.0])
    times = [r.mean_completion_s for r in results]
    assert times[0] < times[-1]


def test_find_max_sustainable_is_sustainable():
    result = find_max_sustainable(small_config(), iterations=6)
    assert result.sustainable
    assert result.client_data_rate > 0


def test_find_max_sustainable_validation():
    with pytest.raises(ValueError):
        find_max_sustainable(small_config(), rate_low=0)
    with pytest.raises(ValueError):
        find_max_sustainable(small_config(), rate_low=5, rate_high=5)


def test_max_sustainable_grows_with_disks():
    few = find_max_sustainable(small_config(num_disks=4), iterations=6)
    many = find_max_sustainable(small_config(num_disks=16), iterations=6)
    # §5.2: "the rate of requests that are serviceable increased almost
    # linearly in the number of disks."
    assert many.client_data_rate > 2.5 * few.client_data_rate


def test_max_sustainable_grows_with_unit():
    small = find_max_sustainable(small_config(transfer_unit=4 * KB),
                                 iterations=6)
    large = find_max_sustainable(small_config(transfer_unit=32 * KB),
                                 iterations=6)
    # §5.2: "The increase in effective data-rate is almost linear in the
    # size of the transfer unit" (4 KB -> 32 KB is ~6x in the paper).
    assert large.client_data_rate > 3 * small.client_data_rate


def test_figure3_series_structure():
    points = figure3_series(rates=(2.0, 6.0), disk_counts=(4, 8),
                            block_sizes=(32 * KB,), num_requests=60)
    assert len(points) == 4
    series = {p.series for p in points}
    assert series == {"32KB blocks, 4 disks", "32KB blocks, 8 disks"}
    for point in points:
        assert point.y > 0  # milliseconds


def test_figure4_series_structure():
    points = figure4_series(rates=(2.0,), disk_counts=(2, 8),
                            num_requests=60)
    assert {p.series for p in points} == {"2 disks", "8 disks"}
    two = next(p for p in points if p.series == "2 disks")
    eight = next(p for p in points if p.series == "8 disks")
    assert eight.y < two.y


def test_figure5_series_small():
    points = figure5_series(disk_counts=(2, 8),
                            disk_names=("Fujitsu M2372K",),
                            num_requests=80, iterations=5)
    assert len(points) == 2
    assert points[1].y > points[0].y  # more disks, more data-rate


# -- the bracketed search against the doubling-and-bisection search ----------


def bisection_oracle(base, iterations, storage_factory=None):
    """The search find_max_sustainable used before, at its default rate
    limits: double up from ``rate_low`` to the first unsustainable rate,
    then bisect."""
    rate_low, rate_high = 0.05, 400.0

    def sustainable(rate):
        result = repro.sim.sweep.run_once(
            dataclasses.replace(base, arrival_rate=rate),
            storage_factory=storage_factory)
        return result.sustainable, result

    ok, best = sustainable(rate_low)
    if not ok:
        return best
    low, high, rate = rate_low, None, rate_low
    while rate * 2.0 <= rate_high:
        rate *= 2.0
        ok, result = sustainable(rate)
        if not ok:
            high = rate
            break
        low, best = rate, result
    if high is None:
        ok, result = sustainable(rate_high)
        if ok:
            return result
        high = rate_high
    for _ in range(iterations):
        mid = (low + high) / 2.0
        ok, result = sustainable(mid)
        if ok:
            low, best = mid, result
        else:
            high = mid
    return best


@pytest.fixture
def probe_count(monkeypatch):
    """Counts every model run either search makes."""
    count = [0]

    def counting(original):
        def run(*args, **kwargs):
            count[0] += 1
            return original(*args, **kwargs)
        return run

    monkeypatch.setattr(repro.sim.parallel, "_run_config",
                        counting(repro.sim.parallel._run_config))
    monkeypatch.setattr(repro.sim.sweep, "run_once",
                        counting(repro.sim.sweep.run_once))
    return count


def _raid_factory(env, index, streams):
    return RaidArray(env, num_members=8, controller_rate=4 * MB,
                     stream=streams.stream(f"raid/{index}"))


SLOW_SPEC = DiskSpec(name="slow stand-in", avg_seek_s=0.16,
                     avg_rotation_s=0.083,
                     transfer_rate_bytes_per_s=250_000.0)


def _slow_factory(env, index, streams):
    return Disk(env, SLOW_SPEC, stream=streams.stream(f"disk/{index}"))


SEARCH_CASES = {
    "8 disks, 32 KB": (small_config(num_requests=60, warmup_requests=6),
                       None),
    "2 disks": (small_config(num_disks=2, num_requests=60,
                             warmup_requests=6), None),
    "4 KB units": (small_config(transfer_unit=4 * KB,
                                request_size=128 * KB, num_requests=60,
                                warmup_requests=6), None),
    "DEC RA82": (small_config(disk=DISK_CATALOG["DEC RA82"],
                              num_requests=60, warmup_requests=6), None),
    "writes only": (small_config(read_fraction=0.0, num_requests=60,
                                 warmup_requests=6), None),
    "RAID storage": (SimConfig(num_disks=2, transfer_unit=256 * KB,
                               request_size=4 * MB, num_requests=60,
                               warmup_requests=6, seed=3), _raid_factory),
}


@pytest.mark.parametrize("case", sorted(SEARCH_CASES))
def test_bracketed_search_matches_bisection(case, probe_count):
    base, factory = SEARCH_CASES[case]
    iterations = 6
    expected = bisection_oracle(base, iterations, storage_factory=factory)
    bisection_probes = probe_count[0]
    probe_count[0] = 0
    found = find_max_sustainable(base, iterations=iterations,
                                 storage_factory=factory)
    assert found.sustainable
    assert found.config.arrival_rate == pytest.approx(
        expected.config.arrival_rate, rel=2.0 ** -(iterations - 1))
    assert probe_count[0] <= bisection_probes


def test_bracket_widens_when_the_bound_is_far_off(probe_count):
    # The bound reads config.disk; the agents run a disk ten times slower
    # in every respect, so the boundary sits far below U / 2.
    base = small_config(num_requests=60, warmup_requests=6)
    iterations = 6
    expected = bisection_oracle(base, iterations,
                                storage_factory=_slow_factory)
    bisection_probes = probe_count[0]
    probe_count[0] = 0
    found = find_max_sustainable(base, iterations=iterations,
                                 storage_factory=_slow_factory)
    assert found.config.arrival_rate < sustainable_rate_bound(base) / 8
    assert found.sustainable
    assert found.config.arrival_rate == pytest.approx(
        expected.config.arrival_rate, rel=2.0 ** -(iterations - 1))
    assert probe_count[0] <= bisection_probes


def test_unsustainable_rate_low_is_returned_as_the_bound(probe_count):
    result = find_max_sustainable(small_config(num_requests=60,
                                               warmup_requests=6),
                                  rate_low=50.0, rate_high=100.0)
    assert result.config.arrival_rate == 50.0
    assert not result.sustainable
    assert probe_count[0] == 1


def test_sustainable_rate_high_is_returned(probe_count):
    result = find_max_sustainable(small_config(num_requests=60,
                                               warmup_requests=6),
                                  rate_low=0.05, rate_high=0.2)
    assert result.config.arrival_rate == 0.2
    assert result.sustainable
    assert probe_count[0] == 1


def test_sustainable_rate_bound_by_hand():
    # One M2372K, 128 KB requests in 32 KB units: four blocks, all on the
    # one disk, back to back.
    config = SimConfig(num_disks=1, transfer_unit=32 * KB,
                       request_size=128 * KB)
    block_s = 0.016 + 0.0083 + 32768 / 2.5e6           # seek + rotation + media
    request_path_s = (2 * (1500 + 64) / 100e6          # client, agent CPU
                      + 10e-6 + 64 * 8 / 1e9)          # ring token + wire
    last_block_s = (2 * (1500 + 32768) / 100e6
                    + 10e-6 + 32768 * 8 / 1e9)
    zero_load_s = request_path_s + 4 * block_s + last_block_s
    disk_demand_s = 4 * block_s
    assert disk_demand_s < zero_load_s
    assert sustainable_rate_bound(config) == pytest.approx(
        1.0 / zero_load_s, rel=1e-6)
