"""The parallel sweep runner and result cache.

Two contracts:

* **bit-identity** — fanning runs out over worker processes (or replaying
  them from the cache) yields results equal, field for field, to the
  serial loop; and
* **key discipline** — cache keys are stable across processes for the
  same (config, code) and change whenever either input changes.
"""

import dataclasses

import pytest

from repro.sim import (
    ResultCache,
    SimConfig,
    config_key,
    find_max_sustainable,
    find_max_sustainable_many,
    load_sweep,
    run_many,
)
from repro.sim.cache import result_from_jsonable, result_to_jsonable


def _small(seed=0, **overrides):
    parameters = dict(num_disks=2, num_requests=30, warmup_requests=3,
                      request_size=64 * 1024, transfer_unit=32 * 1024,
                      num_clients=2, seed=seed)
    parameters.update(overrides)
    return SimConfig(**parameters)


RATES = (2.0, 5.0, 9.0)


# -- bit-identity -----------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 42])
def test_parallel_sweep_bit_identical_to_serial(seed):
    base = _small(seed=seed)
    serial = load_sweep(base, RATES)
    parallel = load_sweep(base, RATES, workers=2)
    assert parallel == serial  # frozen dataclasses: field-for-field equality


def test_run_many_preserves_input_order():
    configs = [_small(seed=s, arrival_rate=r)
               for s in (0, 1) for r in (3.0, 6.0)]
    results = run_many(configs, workers=2)
    assert [r.config for r in results] == configs


def test_load_sweep_sets_rates_in_order():
    results = load_sweep(_small(), RATES, workers=2)
    assert [r.config.arrival_rate for r in results] == list(RATES)


def test_find_max_sustainable_many_matches_sequential():
    bases = [_small(seed=0), _small(seed=1)]
    fanned = find_max_sustainable_many(bases, iterations=3, workers=2)
    sequential = [find_max_sustainable(base, iterations=3)
                  for base in bases]
    assert fanned == sequential


# -- cache round-trip ---------------------------------------------------------------


def test_cache_roundtrip_is_bit_identical(tmp_path):
    base = _small()
    cache = ResultCache(tmp_path)
    first = load_sweep(base, RATES, cache=cache)
    assert cache.misses == len(RATES) and cache.hits == 0
    second = load_sweep(base, RATES, cache=cache)
    assert cache.hits == len(RATES)
    assert first == second == load_sweep(base, RATES)


def test_result_json_roundtrip_exact():
    result = load_sweep(_small(), [4.0])[0]
    assert result_from_jsonable(result_to_jsonable(result)) == result


def test_cached_bisection_replays_probes(tmp_path):
    base = _small()
    cache = ResultCache(tmp_path)
    cold = find_max_sustainable(base, iterations=3, cache=cache)
    probes = cache.misses
    warm = find_max_sustainable(base, iterations=3, cache=cache)
    assert warm == cold
    assert cache.hits == probes, "warm bisection should replay every probe"


def test_serial_searches_count_on_the_callers_cache(tmp_path):
    # In-process searches must hit and miss on the caller's object, not
    # on a second ResultCache reopened over the same directory.
    base = _small()
    cache = ResultCache(tmp_path)
    first = find_max_sustainable_many([base], iterations=3, cache=cache)
    probes = len(cache)
    assert probes > 0
    assert (cache.hits, cache.misses) == (0, probes)
    again = find_max_sustainable_many([base], iterations=3, cache=cache)
    assert again == first
    assert (cache.hits, cache.misses) == (probes, probes)


def test_figure5_series_counts_on_the_callers_cache(tmp_path):
    from repro.sim import figure5_series

    cache = ResultCache(tmp_path)
    kwargs = dict(disk_counts=(1,), disk_names=("Fujitsu M2372K",),
                  num_requests=20, iterations=2, cache=cache)
    first = figure5_series(**kwargs)
    entries = len(cache)
    assert cache.misses == entries > 0 and cache.hits == 0
    assert figure5_series(**kwargs) == first
    assert cache.hits == entries


def test_corrupt_cache_entry_is_a_miss_not_an_error(tmp_path):
    base = _small()
    cache = ResultCache(tmp_path)
    result = load_sweep(base, [4.0], cache=cache)[0]
    entry = next(tmp_path.glob("*.json"))
    entry.write_text("{ torn")
    again = load_sweep(base, [4.0], cache=ResultCache(tmp_path))[0]
    assert again == result


# -- key discipline -----------------------------------------------------------------


def test_config_key_is_stable():
    key = config_key(_small(), version="v")
    assert key == config_key(_small(), version="v")
    assert len(key) == 64 and int(key, 16) >= 0  # hex sha256


def test_config_key_covers_every_field():
    base_key = config_key(_small(), version="v")
    for overrides in (dict(seed=1), dict(arrival_rate=9.0),
                      dict(num_disks=4), dict(tie_break_seed=3),
                      dict(read_fraction=0.5),
                      dict(disk_scheduling="edf")):
        assert config_key(_small(**overrides), version="v") != base_key, \
            f"key must change under {overrides}"


def test_config_key_invalidated_by_code_version():
    config = _small()
    assert config_key(config, version="a") != config_key(config, version="b")


def test_default_code_version_is_memoised_and_hexadecimal():
    from repro.sim import code_version
    first = code_version()
    assert first == code_version()
    assert len(first) == 64 and int(first, 16) >= 0


def test_storage_factory_bypasses_cache(tmp_path):
    """A storage_factory changes the model invisibly to the key, so the
    cached path must not serve (or store) such runs."""
    from repro.simdisk import Disk

    base = _small()
    cache = ResultCache(tmp_path)
    load_sweep(base, [4.0], cache=cache)
    assert len(cache) == 1

    def factory(env, index, streams):
        return Disk(env, base.disk, stream=streams.stream(f"disk/{index}"))

    load_sweep(base, [4.0], storage_factory=factory, cache=cache)
    assert len(cache) == 1, "factory runs must never be cached"
