"""Model benchmark: events per run, events/s and golden-result identity.

Not a paper result — this prices the §5 model's one request path on the
Figure 3- and Figure 5-shaped runs that once measured its two process
modes, and re-checks the golden results.  The shapes are full size in
every mode, so event counts compare like for like with the committed
callback-mode counts in ``baselines/BENCH_process_modes.json``, the bar
the one path must hold.  ``BENCH_model_events.json`` archives, for
``check_regression.py``:

* ``fig3_events`` / ``fig5_events`` — calendar entries per run
  (deterministic); above the committed callback-mode counts fails;
* ``fig5_events_per_sec`` — fig5 events per wall-clock second, best of
  N rounds (scheduler noise only ever inflates a round); more than the
  regression threshold below the committed callback-mode rate fails;
* ``golden_mismatches`` — configurations of
  ``tests/sim/data/golden_results.json`` whose result differs in any
  field; any mismatch fails.
"""

import json
import time
from pathlib import Path

from _common import archive_json, scaled

from repro.sim.model import SwiftSimModel
from repro.sim.workload import SimConfig
from repro.simdisk import DISK_CATALOG

GOLDEN = (Path(__file__).resolve().parent.parent
          / "tests" / "sim" / "data" / "golden_results.json")

#: Figure 3 shape: 1 MiB requests over 8 disks, read-heavy.
FIG3_STYLE = SimConfig(num_requests=120, warmup_requests=12,
                       arrival_rate=8.0)

#: Figure 5 shape: small transfer unit, small requests, higher rate —
#: the densest event stream.
FIG5_STYLE = SimConfig(num_requests=240, warmup_requests=24,
                       arrival_rate=60.0,
                       transfer_unit=4096, request_size=1 << 16)


def _run(config: SimConfig):
    """(SimResult, elapsed seconds, engine event count) for one run."""
    model = SwiftSimModel(config)
    start = time.perf_counter()
    result = model.run()
    return result, time.perf_counter() - start, model.env._eid


def golden_mismatches() -> list[str]:
    """Names of golden configurations whose result changed."""
    mismatches = []
    for name, case in json.loads(GOLDEN.read_text()).items():
        fields = dict(case["config"])
        if "disk" in fields:
            fields["disk"] = DISK_CATALOG[fields["disk"]]
        result = SwiftSimModel(SimConfig(**fields)).run()
        recorded = {key: getattr(result, key) for key in case["result"]}
        if recorded != case["result"]:
            mismatches.append(name)
    return mismatches


def bench_model_events(benchmark):
    benchmark(lambda: _run(FIG5_STYLE))

    rounds = scaled(9, 5)
    shapes = {}
    for name, config in (("fig3", FIG3_STYLE), ("fig5", FIG5_STYLE)):
        runs = [_run(config) for _ in range(rounds)]
        assert len({result for result, _, _ in runs}) == 1, \
            f"{name}: repeated runs disagree"
        shapes[name] = (runs[0][2], min(seconds for _, seconds, _ in runs))
    mismatches = golden_mismatches()

    fig5_events, fig5_s = shapes["fig5"]
    payload = {
        "workload": "fig3/fig5-style model runs (full size) "
                    "and the golden-result grid",
        "fig3_events": shapes["fig3"][0],
        "fig3_s": shapes["fig3"][1],
        "fig5_events": fig5_events,
        "fig5_s": fig5_s,
        "fig5_events_per_sec": fig5_events / fig5_s,
        "golden_mismatches": len(mismatches),
    }
    path = archive_json("BENCH_model_events", payload)
    print(f"\nmodel: fig3 {payload['fig3_events']} events, "
          f"fig5 {fig5_events} events at "
          f"{payload['fig5_events_per_sec']:,.0f} events/s; "
          f"golden mismatches: {mismatches or 'none'} -> {path}")
    assert not mismatches, f"golden results changed: {mismatches}"
