"""Golden SimResults: the §5 model's outputs, pinned field for field.

``data/golden_results.json`` holds a grid of model configurations and
the results they produced, recorded before the request path was
rewritten onto the one process model (hold, immediate start, inline
completion, span coalescing).
Every run here must reproduce its record exactly — a changed float in
any field is a changed model, not noise.

The grid covers every catalogued disk model, 1 to 16 disks, a transfer
unit that does not divide the request size, EDF with deadlines, tie
shuffling, and saturated runs that stop at the horizon guard with
some or with no requests measured.  Each
configuration is also run down the engine's other paths, which must
land on the same record:

* ``transfer-monitor`` — span coalescing off, so every disk chain
  expands block by block;
* ``step-monitor`` — no event pooling, no token grants, no inline
  completion: every process finishes through a calendar event;
* ``one-heap`` — ``cohort_dispatch=False``, the reference scheduler.

Regenerate (only for a deliberate model change) with::

    PYTHONPATH=src python tests/sim/test_golden_results.py
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.sim.model import SwiftSimModel
from repro.sim.workload import SimConfig
from repro.simdisk import DISK_CATALOG

GOLDEN = Path(__file__).parent / "data" / "golden_results.json"

KB = 1 << 10

#: Small runs: enough requests to queue, few enough to keep the grid quick.
BASE = dict(num_requests=20, warmup_requests=2, seed=11)

#: One disk count per catalogued model, spanning 1-16 disks.
DISK_COUNTS = [1, 2, 3, 4, 5, 6, 8, 10, 12, 16]


def _cases() -> dict[str, dict]:
    cases = {}
    # Offered load climbs with the grid position, from light to overload.
    for index, (disks, name) in enumerate(zip(DISK_COUNTS, DISK_CATALOG)):
        cases[f"{name} x{disks}"] = dict(
            BASE, disk=name, num_disks=disks,
            arrival_rate=(0.2 + 0.1 * index) * disks)
    cases["odd unit"] = dict(
        BASE, num_disks=5, transfer_unit=12 * KB, request_size=100_000,
        arrival_rate=20.0)
    cases["fig5 shape"] = dict(
        BASE, num_disks=8, transfer_unit=4 * KB, request_size=128 * KB,
        arrival_rate=60.0, read_fraction=0.2)
    cases["edf deadlines"] = dict(
        BASE, num_disks=4, arrival_rate=3.0, disk_scheduling="edf",
        deadline_s=0.4, realtime_fraction=0.5)
    cases["all writes"] = dict(BASE, num_disks=6, read_fraction=0.0,
                               arrival_rate=6.0, num_clients=2)
    cases["all reads"] = dict(BASE, num_disks=7, read_fraction=1.0,
                              arrival_rate=9.0, num_clients=1)
    cases["slow hosts"] = dict(BASE, num_disks=8, host_mips=25.0,
                               arrival_rate=5.0)
    cases["tie shuffle"] = dict(BASE, num_disks=4, arrival_rate=5.0,
                                tie_break_seed=3)
    cases["saturated horizon"] = dict(
        BASE, num_disks=2, request_size=64 * KB, arrival_rate=400.0,
        num_requests=30, warmup_requests=3)
    cases["stalled horizon"] = dict(
        BASE, num_disks=2, arrival_rate=400.0, num_requests=30,
        warmup_requests=3)
    return cases


CASES = _cases()


def _config(overrides: dict) -> SimConfig:
    fields = dict(overrides)
    fields["disk"] = DISK_CATALOG[fields["disk"]] if "disk" in fields \
        else SimConfig().disk
    return SimConfig(**fields)


def _fields(result) -> dict:
    """Every SimResult field except the config, JSON-ready."""
    record = dataclasses.asdict(result)
    del record["config"]
    return record


def _run(config: SimConfig, path: str):
    model = SwiftSimModel(config, cohort_dispatch=path != "one-heap")
    if path == "transfer-monitor":
        model.env.attach(
            SimpleNamespace(on_transfer=lambda kind, **info: None))
        assert not model.env.span_coalescing
    elif path == "step-monitor":
        model.env.attach(SimpleNamespace(on_step=lambda when, event: None))
    return model.run()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_grid_covers_the_stated_shapes(golden):
    assert {name: case["config"] for name, case in golden.items()} == CASES
    configs = [_config(overrides) for overrides in CASES.values()]
    assert {config.disk.name for config in configs} \
        == {spec.name for spec in DISK_CATALOG.values()}
    assert min(c.num_disks for c in configs) == 1
    assert max(c.num_disks for c in configs) == 16
    assert any(c.request_size % c.transfer_unit for c in configs)
    assert any(c.disk_scheduling == "edf" and c.deadline_s for c in configs)
    stopped = [name for name, case in golden.items()
               if case["result"]["completed"] < CASES[name]["num_requests"]]
    assert sorted(stopped) == ["saturated horizon", "stalled horizon"]
    assert golden["saturated horizon"]["result"]["completed"] > 0


@pytest.mark.parametrize("path", ["default", "transfer-monitor",
                                  "step-monitor", "one-heap"])
@pytest.mark.parametrize("name", list(CASES))
def test_result_matches_golden(golden, name, path):
    config = _config(CASES[name])
    result = _run(config, path)
    assert result.config == config
    assert _fields(result) == golden[name]["result"]


def main() -> None:
    records = {name: {"config": overrides,
                      "result": _fields(_run(_config(overrides), "default"))}
               for name, overrides in CASES.items()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} golden results to {GOLDEN}")


if __name__ == "__main__":
    main()
